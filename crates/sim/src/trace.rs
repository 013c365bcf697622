use std::fmt;

use aoft_hypercube::NodeId;
use serde::{Deserialize, Serialize};

use crate::Ticks;

/// What happened in a traced simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A message left this endpoint.
    Send {
        /// Destination endpoint.
        to: NodeId,
        /// Payload words.
        words: u64,
        /// Sender sequence number.
        seq: u64,
    },
    /// A message arrived at this endpoint.
    Recv {
        /// Source endpoint.
        from: NodeId,
        /// Payload words.
        words: u64,
    },
    /// Computation was charged to the local clock.
    Compute {
        /// Milliticks charged.
        millis: u64,
    },
    /// An adversary suppressed an outgoing message.
    AdversaryDropped {
        /// The destination that never saw it.
        to: NodeId,
    },
    /// An adversary rewrote or fanned out an outgoing message.
    AdversaryRewrote {
        /// The original destination.
        to: NodeId,
        /// Packets actually delivered.
        delivered: u32,
    },
    /// An executable assertion fired; the run is fail-stopping.
    ErrorSignalled {
        /// Application-level violation code.
        code: u32,
    },
    /// A frame from another job was discarded on a reused link.
    StaleDropped {
        /// The neighbor whose link carried the stale frame.
        from: NodeId,
        /// The job id the stale frame was tagged with.
        job: u64,
    },
}

/// One traced event at one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// The endpoint at which the event happened ([`HOST_ID`](crate::HOST_ID)
    /// for the host).
    pub node: NodeId,
    /// Virtual time on that endpoint's clock.
    pub at: Ticks,
    /// The event itself.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ {}] ", self.node, self.at)?;
        match self.kind {
            EventKind::Send { to, words, seq } => write!(f, "send #{seq} -> {to} ({words}w)"),
            EventKind::Recv { from, words } => write!(f, "recv <- {from} ({words}w)"),
            EventKind::Compute { millis } => write!(f, "compute {millis}mt"),
            EventKind::AdversaryDropped { to } => write!(f, "ADVERSARY dropped -> {to}"),
            EventKind::AdversaryRewrote { to, delivered } => {
                write!(f, "ADVERSARY rewrote -> {to} ({delivered} delivered)")
            }
            EventKind::ErrorSignalled { code } => write!(f, "ERROR signalled (code {code})"),
            EventKind::StaleDropped { from, job } => {
                write!(f, "stale frame <- {from} (job {job}) dropped")
            }
        }
    }
}

/// A merged, time-ordered run trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    pub(crate) fn from_parts(parts: Vec<Vec<Event>>) -> Self {
        let mut events: Vec<Event> = parts.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.at, e.node));
        Self { events }
    }

    /// All events in (virtual time, node) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events observed at one endpoint, in time order.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.node == node)
    }

    /// `true` if no events were recorded (tracing disabled or trivial run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(node: u32, at: u64, kind: EventKind) -> Event {
        Event {
            node: NodeId::new(node),
            at: Ticks::from_ticks(at),
            kind,
        }
    }

    #[test]
    fn merge_orders_by_time_then_node() {
        let trace = Trace::from_parts(vec![
            vec![event(1, 5, EventKind::Compute { millis: 10 })],
            vec![
                event(0, 5, EventKind::Compute { millis: 20 }),
                event(0, 2, EventKind::Compute { millis: 30 }),
            ],
        ]);
        let times: Vec<(u64, u32)> = trace
            .events()
            .iter()
            .map(|e| (e.at.as_ticks(), e.node.raw()))
            .collect();
        assert_eq!(times, vec![(2, 0), (5, 0), (5, 1)]);
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.for_node(NodeId::new(0)).count(), 2);
    }

    #[test]
    fn display_all_kinds() {
        let kinds = [
            EventKind::Send {
                to: NodeId::new(1),
                words: 2,
                seq: 0,
            },
            EventKind::Recv {
                from: NodeId::new(1),
                words: 2,
            },
            EventKind::Compute { millis: 450 },
            EventKind::AdversaryDropped { to: NodeId::new(3) },
            EventKind::AdversaryRewrote {
                to: NodeId::new(3),
                delivered: 2,
            },
            EventKind::ErrorSignalled { code: 4 },
        ];
        for kind in kinds {
            let text = event(0, 1, kind).to_string();
            assert!(text.starts_with("[P0 @ 1t]"), "{text}");
        }
        let trace = Trace::from_parts(vec![vec![event(0, 1, kinds[0])]]);
        assert!(trace.to_string().contains("send #0"));
    }
}

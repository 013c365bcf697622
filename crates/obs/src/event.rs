//! Structured events and the JSONL postmortem journal.
//!
//! The span hierarchy mirrors the paper's execution structure:
//!
//! ```text
//! job ─▶ attempt ─▶ stage (i, j) ─▶ predicate check
//! ```
//!
//! Every event carries whichever coordinates of that hierarchy are known at
//! the emission site (`job`, `attempt`, `stage`, `step`, `node`), plus the
//! fault-diagnosis fields a postmortem needs: who reported (`node`), over
//! which link (`link`), which predicate fired (`predicate`), and the stable
//! violation `code`.
//!
//! Events always land in a bounded in-memory ring (cheap, lock-held only
//! for the push); when a journal file is installed via [`install_journal`]
//! they are additionally appended as one JSON object per line — the
//! artifact the nightly soak archives for fail-stop postmortems.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Ring capacity for recent events kept in memory.
const RING_CAPACITY: usize = 4096;

/// One structured observability event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Event {
    /// Microseconds since the process's observability clock started.
    pub ts_us: u64,
    /// Wall-clock milliseconds since the Unix epoch (for cross-process
    /// correlation in postmortems).
    pub(crate) unix_ms: u64,
    /// Event kind (`job_submitted`, `attempt_failstop`, `violation`, …).
    pub kind: String,
    /// Job id, when the event belongs to a job span.
    pub job: Option<u64>,
    /// Attempt ordinal within the job (0-based).
    pub attempt: Option<u32>,
    /// Sort stage `i`, when known.
    pub stage: Option<u32>,
    /// Reporting or affected node label.
    pub node: Option<u32>,
    /// Predicate family (`phi_p`, `phi_f`, `phi_c`, `structure`,
    /// `timeout`, `theorem1`) for detection events.
    pub(crate) predicate: Option<String>,
    /// Stable violation code, when the event carries one.
    pub code: Option<u32>,
    /// Duration of the span the event closes, in microseconds.
    pub elapsed_us: Option<u64>,
    /// Delivery index: how many messages the reporting node had sent when
    /// the event fired (virtual-time coordinate for replay alignment).
    pub seq: Option<u64>,
    /// RNG seed governing the randomness behind this event (fault plans,
    /// adversaries) — the input a replay needs to reproduce it.
    pub seed: Option<u64>,
    /// Human-readable detail.
    pub detail: Option<String>,
}

impl Event {
    /// A new event of `kind`, timestamped now, all coordinates unset.
    pub fn new(kind: &str) -> Self {
        Self {
            ts_us: clock_start().elapsed().as_micros() as u64,
            unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            kind: kind.to_string(),
            job: None,
            attempt: None,
            stage: None,
            node: None,
            predicate: None,
            code: None,
            elapsed_us: None,
            seq: None,
            seed: None,
            detail: None,
        }
    }

    /// Sets the job coordinate.
    pub fn job(mut self, job: u64) -> Self {
        self.job = Some(job);
        self
    }

    /// Sets the attempt coordinate.
    pub fn attempt(mut self, attempt: u32) -> Self {
        self.attempt = Some(attempt);
        self
    }

    /// Sets the stage coordinate.
    pub fn stage(mut self, stage: Option<u32>) -> Self {
        self.stage = stage;
        self
    }

    /// Sets the node coordinate.
    pub fn node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// Sets the predicate family.
    pub(crate) fn predicate(mut self, predicate: &str) -> Self {
        self.predicate = Some(predicate.to_string());
        self
    }

    /// Sets the violation code.
    pub fn code(mut self, code: u32) -> Self {
        self.code = Some(code);
        self
    }

    /// Sets the closed span's duration.
    pub fn elapsed(mut self, elapsed: std::time::Duration) -> Self {
        self.elapsed_us = Some(elapsed.as_micros() as u64);
        self
    }

    /// Sets the delivery index (messages sent by the reporter so far).
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = Some(seq);
        self
    }

    /// Sets the governing RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the human-readable detail.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

struct JournalState {
    ring: std::collections::VecDeque<Event>,
    file: Option<BufWriter<File>>,
}

struct Journal {
    state: Mutex<JournalState>,
    file_installed: AtomicBool,
}

static JOURNAL: OnceLock<Journal> = OnceLock::new();
static CLOCK_START: OnceLock<Instant> = OnceLock::new();

fn clock_start() -> &'static Instant {
    CLOCK_START.get_or_init(Instant::now)
}

fn journal() -> &'static Journal {
    JOURNAL.get_or_init(|| Journal {
        state: Mutex::new(JournalState {
            ring: std::collections::VecDeque::with_capacity(128),
            file: None,
        }),
        file_installed: AtomicBool::new(false),
    })
}

/// Routes future events to a JSONL file at `path` (truncating any previous
/// contents) in addition to the in-memory ring.
///
/// # Errors
///
/// [`std::io::Error`] if the file cannot be created.
pub fn install_journal(path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = File::create(path)?;
    let j = journal();
    j.state.lock().file = Some(BufWriter::new(file));
    j.file_installed.store(true, Ordering::Release);
    Ok(())
}

/// Flushes the journal file, if one is installed.
pub fn flush_journal() {
    if let Some(file) = journal().state.lock().file.as_mut() {
        let _ = file.flush();
    }
}

/// Records `event` into the ring (and the JSONL file when installed).
pub fn emit(event: Event) {
    let j = journal();
    let mut state = j.state.lock();
    if state.ring.len() >= RING_CAPACITY {
        state.ring.pop_front();
    }
    if let Some(file) = state.file.as_mut() {
        if let Ok(line) = serde_json::to_string(&event) {
            let _ = writeln!(file, "{line}");
        }
    }
    state.ring.push_back(event);
}

/// The most recent events (oldest first), up to the ring capacity.
pub fn recent_events() -> Vec<Event> {
    journal().state.lock().ring.iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_as_single_json_lines() {
        let e = Event::new("violation")
            .job(3)
            .attempt(1)
            .stage(Some(2))
            .node(5)
            .predicate("phi_c")
            .code(3)
            .detail("disagreeing copies");
        let line = serde_json::to_string(&e).unwrap();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"kind\":\"violation\""));
        assert!(line.contains("\"predicate\":\"phi_c\""));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back.job, Some(3));
        assert_eq!(back.code, Some(3));
        assert_eq!(back.kind, "violation");
    }

    #[test]
    fn ring_keeps_recent_events() {
        emit(Event::new("test_ring_probe").detail("first"));
        emit(Event::new("test_ring_probe").detail("second"));
        let recent = recent_events();
        let probes: Vec<_> = recent
            .iter()
            .filter(|e| e.kind == "test_ring_probe")
            .collect();
        assert!(probes.len() >= 2);
    }

    #[test]
    fn journal_file_receives_jsonl() {
        let dir = std::env::temp_dir().join(format!("aoft-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        install_journal(&path).unwrap();
        assert!(journal().file_installed.load(Ordering::Acquire));
        emit(Event::new("journal_probe").node(4).code(6));
        flush_journal();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("journal_probe"))
            .expect("probe line present");
        let event: Event = serde_json::from_str(line).unwrap();
        assert_eq!(event.node, Some(4));
        // Detach the file so later tests in this process don't keep
        // writing into the temp dir.
        journal().state.lock().file = None;
        journal().file_installed.store(false, Ordering::Release);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

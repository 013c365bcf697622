//! The fleet router: N sort cubes behind one admission door.
//!
//! One [`SortService`] is one machine — a `2^d`-node cube whose quarantine
//! can only shrink it. A [`FleetRouter`] owns several such cubes (plus
//! optional standby spares) and routes a stream of [`JobSpec`]s across
//! them. A cube runs in this process ([`FleetRouter::start`]) or is a
//! cube-host child process behind a control session
//! ([`FleetRouter::connect`]); one policy serves both:
//!
//! * **routing** — round-robin over *healthy* active cubes; cubes the
//!   recovery layer has shrunk (non-empty quarantine) are deprioritized to
//!   the back of the order, and standby spares are promoted to active the
//!   moment a degraded cube drops the healthy-active count below target;
//! * **fleet backpressure** — each cube's bounded queue rejects with
//!   [`SubmitError::Backpressure`]; the router tries the next cube in
//!   routing order and only when *every* cube refuses does the caller see
//!   one aggregated fleet-wide backpressure signal;
//! * **failover** — [`FleetHandle::wait`] resubmits a job whose cube
//!   failed it loudly ([`JobError::Exhausted`], [`JobError::CubeExhausted`],
//!   [`JobError::Runtime`], [`JobError::Stopped`]) to a different cube, up
//!   to [`MAX_REROUTES`] times — the fleet-level analogue of
//!   the paper's degraded-mode retry, one level up: where a cube retries a
//!   job on its largest surviving subcube, the fleet retries it on a
//!   different cube entirely. Results stay verified end to end; a job is
//!   never answered with an unverified output, no matter how many hops.
//!
//! Observability: a fleet has one endpoint, at the cube configuration's
//! [`SvcConfig::metrics_addr`] ([`FleetRouter::metrics_addr`]); no cube binds
//! its own. A scrape reads the router's state when it arrives:
//! `aoft_fleet_cubes`, per-cube `aoft_fleet_jobs_routed_total` and
//! `aoft_fleet_cube_health`, `aoft_fleet_failovers_total` and
//! `aoft_fleet_spares_promoted_total`, then every cube's service families
//! labeled `cube="i"` (a cube-host child's as its parent-side counts), then
//! the process registry.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aoft_net::{MuxTransport, Transport};
use aoft_obs::prom::Exposition;
use aoft_obs::{Counter, ObsServer};
use aoft_sim::Packet;
use aoft_sort::Msg;

use crate::config::{ConfigError, SvcConfig};
use crate::job::{JobError, JobHandle, JobReport, JobSpec, SubmitError};
use crate::metrics::{self, Families, SvcMetrics};
use crate::remote::{RemoteCube, PARENT_LABEL};
use crate::service::SortService;

/// Configuration of a [`FleetRouter`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-cube service configuration (every cube runs the same shape).
    pub cube: SvcConfig,
    /// Active cubes — the routing target count the router tries to keep
    /// healthy by promoting spares.
    pub cubes: usize,
    /// Standby cubes held out of routing until an active cube degrades.
    pub spares: usize,
}

/// Times one job may fail over to a different cube before its error is
/// returned to the caller.
const MAX_REROUTES: usize = 2;

impl FleetConfig {
    /// A fleet of `cubes` active cubes of shape `cube`, no spares.
    pub fn new(cube: SvcConfig, cubes: usize) -> Self {
        Self {
            cube,
            cubes,
            spares: 0,
        }
    }

    /// Adds standby cubes, promoted when active cubes degrade.
    pub fn spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }
}

/// What serves one cube's jobs: a service in this process, or a cube-host
/// child over its control session.
enum Backend<T> {
    Local(SortService<T>),
    Remote(RemoteCube),
}

impl<T> Backend<T> {
    fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        match self {
            Backend::Local(service) => service.submit(spec),
            Backend::Remote(child) => child.submit(spec),
        }
    }

    /// Admits a group: a local service queues it whole; a cube-host child
    /// takes it job by job over its control session.
    fn submit_batch(&self, specs: Vec<JobSpec>) -> Vec<Result<JobHandle, SubmitError>> {
        match self {
            Backend::Local(service) => service.submit_batch(specs),
            Backend::Remote(child) => specs.into_iter().map(|spec| child.submit(spec)).collect(),
        }
    }

    /// Degraded cubes are routed last: a service that has quarantined any
    /// node (its largest clean cube is smaller than configured), or a
    /// child that has either done so or left the rotation.
    fn degraded(&self) -> bool {
        match self {
            Backend::Local(service) => service.degraded(),
            Backend::Remote(child) => child.degraded(),
        }
    }

    fn metrics(&self) -> SvcMetrics {
        match self {
            Backend::Local(service) => service.metrics(),
            Backend::Remote(child) => child.metrics(),
        }
    }

    fn families(&self) -> Families<'_> {
        match self {
            Backend::Local(service) => service.families(),
            Backend::Remote(child) => child.families(),
        }
    }
}

struct Cube<T> {
    backend: Backend<T>,
    /// Held in reserve until promoted; spares sort behind every active cube
    /// in routing order.
    spare: AtomicBool,
}

/// A router over N cubes — in-process [`SortService`]s or cube-host child
/// processes — sharing one admission door.
pub struct FleetRouter<T> {
    /// The fleet's endpoint, which reads the cubes: declared first, so it
    /// stops before they drop.
    obs: Option<ObsServer>,
    config: FleetConfig,
    cubes: Arc<[Cube<T>]>,
    /// Round-robin rotation of the routing order.
    rr: AtomicUsize,
    /// Jobs resubmitted to another cube after their first cube failed them.
    failovers: Arc<Counter>,
}

impl<T> FleetRouter<T>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    /// Starts `config.cubes + config.spares` services, one per transport
    /// the factory yields (`transport_for(i)` builds cube `i`'s medium —
    /// each cube is an independent physical machine).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the cube configuration is invalid, the fleet is
    /// empty, a transport cannot be built, or the fleet's metrics address
    /// cannot be bound.
    pub fn start<F>(config: FleetConfig, mut transport_for: F) -> Result<Self, ConfigError>
    where
        F: FnMut(usize) -> Result<T, aoft_net::NetError>,
    {
        if config.cubes == 0 {
            return Err(ConfigError("a fleet needs at least one active cube".into()));
        }
        // The fleet binds the metrics address, once, for every cube.
        let cube = SvcConfig {
            metrics_addr: None,
            ..config.cube.clone()
        };
        let backends = (0..config.cubes + config.spares)
            .map(|i| {
                let transport = transport_for(i)
                    .map_err(|e| ConfigError(format!("fleet cube {i} transport: {e}")))?;
                SortService::start(cube.clone(), transport).map(Backend::Local)
            })
            .collect::<Result<_, _>>()?;
        Self::assemble(config, backends)
    }

    /// Puts `backends` into rotation, the first `config.cubes` active and
    /// the rest spares, and binds the fleet's endpoint if one is asked for.
    fn assemble(config: FleetConfig, backends: Vec<Backend<T>>) -> Result<Self, ConfigError> {
        let cubes: Arc<[Cube<T>]> = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| Cube {
                backend,
                spare: AtomicBool::new(i >= config.cubes),
            })
            .collect();
        let failovers = Arc::new(Counter::default());
        let obs = match config.cube.metrics_addr {
            Some(addr) => {
                let (cubes, failovers) = (Arc::clone(&cubes), Arc::clone(&failovers));
                let actives = config.cubes;
                let render = move || render(&cubes, &failovers, actives);
                let server = ObsServer::bind(addr, render)
                    .map_err(|e| ConfigError(format!("metrics endpoint {addr}: {e}")))?;
                Some(server)
            }
            None => None,
        };
        Ok(Self {
            obs,
            config,
            cubes,
            rr: AtomicUsize::new(0),
            failovers,
        })
    }
}

impl<T> FleetRouter<T> {
    /// The bound metrics-endpoint address (resolved port when configured
    /// with port 0); `None` when the cube configuration asks for none.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(ObsServer::local_addr)
    }

    /// Routes one job to the best cube available and returns its fleet
    /// handle.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Backpressure`] — every cube's queue is full; the
    ///   `depth` reported is the *fleet-wide* admission bound.
    /// * [`SubmitError::Invalid`] — the spec can never run on this fleet's
    ///   cube shape (identical on every cube, so no cube is tried twice).
    /// * [`SubmitError::Stopped`] — no cube accepted the job.
    pub fn submit(&self, spec: JobSpec) -> Result<FleetHandle<'_, T>, SubmitError> {
        self.refresh_health();
        let mut answers = self.route(vec![spec], None);
        answers.pop().expect("one answer per spec")
    }

    /// Routes a whole batch in chunks of
    /// [`SvcConfig::batch_max`](crate::SvcConfig) consecutive specs. Each
    /// chunk is routed once, like one job, and admitted whole by its cube
    /// ([`SortService::submit_batch`]), so an idle cube's batcher coalesces
    /// it into one composite-key attempt; with batching off the chunk size
    /// is 1 and this is plain round-robin. What a cube refuses moves on to
    /// the next cube in the chunk's routing order. Each entry resolves
    /// independently: a backpressured tail does not undo an admitted head.
    pub fn submit_batch(
        &self,
        specs: Vec<JobSpec>,
    ) -> Vec<Result<FleetHandle<'_, T>, SubmitError>> {
        self.refresh_health();
        let mut answers = Vec::with_capacity(specs.len());
        let mut specs = specs.into_iter();
        loop {
            let chunk: Vec<JobSpec> = specs.by_ref().take(self.config.cube.batch_max).collect();
            if chunk.is_empty() {
                return answers;
            }
            answers.extend(self.route(chunk, None));
        }
    }

    /// Pins a job to cube `index`, bypassing routing — an operational and
    /// test hook (drain a cube, reproduce a cube-local failure). Failover
    /// on [`FleetHandle::wait`] still applies.
    ///
    /// # Errors
    ///
    /// The pinned cube's own [`SubmitError`]; [`SubmitError::Stopped`] if
    /// `index` is out of range.
    pub fn submit_to(
        &self,
        index: usize,
        spec: JobSpec,
    ) -> Result<FleetHandle<'_, T>, SubmitError> {
        let cube = self.cubes.get(index).ok_or(SubmitError::Stopped)?;
        let handle = cube.backend.submit(spec.clone())?;
        Ok(FleetHandle {
            router: self,
            spec,
            handle,
            cube: index,
            reroutes: 0,
        })
    }

    /// A point-in-time fleet snapshot (promotes spares first, as routing
    /// does).
    pub fn metrics(&self) -> FleetMetrics {
        self.refresh_health();
        let spare = |c: &Cube<T>| c.spare.load(Ordering::Acquire);
        let spares = self.cubes.iter().filter(|c| spare(c)).count();
        let per_cube: Vec<SvcMetrics> = self.cubes.iter().map(|c| c.backend.metrics()).collect();
        FleetMetrics {
            cubes: self.cubes.len(),
            active: self.cubes.len() - spares,
            spares,
            degraded: (0..self.cubes.len())
                .filter(|&i| self.cubes[i].backend.degraded())
                .collect(),
            // A cube counts exactly the jobs it admitted, which are the
            // jobs routed to it.
            jobs_routed: per_cube.iter().map(|m| m.jobs_submitted).collect(),
            failovers: self.failovers.get(),
            spares_promoted: promoted(&self.cubes, self.config.cubes),
            per_cube,
        }
    }

    /// Stops every cube: queued-but-unstarted jobs resolve with
    /// [`JobError::Stopped`], in-flight jobs run to completion. Dropping
    /// the router does the same.
    pub fn shutdown(self) {}

    /// Keeps the healthy-active count at target by promoting healthy
    /// spares when actives degrade.
    fn refresh_health(&self) {
        let mut healthy_actives = self
            .cubes
            .iter()
            .filter(|c| !c.spare.load(Ordering::Acquire) && !c.backend.degraded())
            .count();
        for (i, cube) in self.cubes.iter().enumerate() {
            if healthy_actives >= self.config.cubes {
                break;
            }
            if cube.backend.degraded() || !cube.spare.swap(false, Ordering::AcqRel) {
                continue;
            }
            healthy_actives += 1;
            aoft_obs::emit(
                aoft_obs::Event::new("spare_promoted")
                    .detail(format!("cube {i} promoted to active")),
            );
        }
    }

    /// The cube indices to try for one job, best first: healthy actives
    /// (rotated round-robin), then healthy spares, then degraded cubes
    /// last — a shrunken cube still serves, but only once nothing whole has
    /// capacity.
    fn routing_order(&self, exclude: Option<usize>) -> Vec<usize> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let mut healthy_active = Vec::new();
        let mut healthy_spare = Vec::new();
        let mut degraded = Vec::new();
        for (i, cube) in self.cubes.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            if cube.backend.degraded() {
                degraded.push(i);
            } else if cube.spare.load(Ordering::Acquire) {
                healthy_spare.push(i);
            } else {
                healthy_active.push(i);
            }
        }
        // Rotate within the healthy-active class, so the round-robin is
        // fair over the cubes actually in rotation.
        let rotation = start % healthy_active.len().max(1);
        healthy_active.rotate_left(rotation);
        healthy_active.extend(healthy_spare);
        healthy_active.extend(degraded);
        healthy_active
    }

    /// Routes `specs` as one group over one routing order that skips cube
    /// `exclude`: the first cube in it is handed the whole group in one
    /// admission, the next cube what the first refused, and so on. A spec
    /// that every cube refuses gets one aggregated fleet-wide backpressure
    /// signal.
    fn route(
        &self,
        specs: Vec<JobSpec>,
        exclude: Option<usize>,
    ) -> Vec<Result<FleetHandle<'_, T>, SubmitError>> {
        let order = self.routing_order(exclude);
        let refusal = if order.is_empty() {
            SubmitError::Stopped
        } else {
            SubmitError::Backpressure {
                depth: self.cubes.len() * self.config.cube.queue_depth,
            }
        };
        let mut answers: Vec<_> = specs.iter().map(|_| Err(refusal.clone())).collect();
        let mut waiting: Vec<(usize, JobSpec)> = specs.into_iter().enumerate().collect();
        for index in order {
            if waiting.is_empty() {
                break;
            }
            let cube = &self.cubes[index];
            let group = waiting.iter().map(|(_, spec)| spec.clone()).collect();
            let admitted = cube.backend.submit_batch(group);
            let mut refused = Vec::new();
            for ((i, spec), answer) in waiting.into_iter().zip(admitted) {
                match answer {
                    Ok(handle) => {
                        // Routing reached a spare: everything ahead of it
                        // was full or degraded, so it joins the actives.
                        cube.spare.store(false, Ordering::Release);
                        answers[i] = Ok(FleetHandle {
                            router: self,
                            spec,
                            handle,
                            cube: index,
                            reroutes: 0,
                        });
                    }
                    Err(SubmitError::Backpressure { .. } | SubmitError::Stopped) => {
                        refused.push((i, spec))
                    }
                    // A shape mismatch is identical on every cube.
                    Err(err @ SubmitError::Invalid(_)) => answers[i] = Err(err),
                }
            }
            waiting = refused;
        }
        answers
    }
}

impl FleetRouter<MuxTransport> {
    /// Waits for each cube-host child in `children` to dial `control` and
    /// routes over them as cubes `0..children.len()`, the first
    /// `config.cubes` active and the rest spares. A child holds at most
    /// `config.cube.queue_depth` jobs in flight; one whose session dies, or
    /// that holds a job past `job_timeout`, leaves the rotation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when `children` is not `cubes + spares` (`cubes` ≥ 1)
    /// distinct labels below the parent's, a child does not dial within
    /// `deadline`, or the fleet's metrics address cannot be bound.
    pub fn connect(
        config: FleetConfig,
        control: MuxTransport,
        children: &[u32],
        deadline: Duration,
        job_timeout: Duration,
    ) -> Result<Self, ConfigError> {
        // A second dial for a label would replace the first child's live
        // session (DESIGN §18), silently ending it.
        let unfit = |i: usize| children[i] >= PARENT_LABEL || children[..i].contains(&children[i]);
        let wanted = config.cubes + config.spares;
        if config.cubes == 0 || children.len() != wanted || (0..wanted).any(unfit) {
            return Err(ConfigError(format!(
                "children {children:?}: want {wanted} distinct labels below {PARENT_LABEL}, \
                 at least one active"
            )));
        }
        config.cube.validate()?;
        let control = Arc::new(control);
        let backends = children
            .iter()
            .map(|&label| {
                RemoteCube::connect(&control, label, &config.cube, deadline, job_timeout)
                    .map(Backend::Remote)
                    .map_err(|e| ConfigError(format!("cube host child {label}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        Self::assemble(config, backends)
    }
}

/// Spares promoted so far: a spare leaves the reserve once and never
/// returns to it.
fn promoted<T>(cubes: &[Cube<T>], actives: usize) -> u64 {
    let promoted = cubes[actives..]
        .iter()
        .filter(|c| !c.spare.load(Ordering::Acquire));
    promoted.count() as u64
}

/// The fleet's scrape: its own families, read from the cubes as they are
/// now, then every cube's service families by `cube` index.
fn render<T>(cubes: &[Cube<T>], failovers: &Counter, actives: usize) -> String {
    let mut out = Exposition::default();
    let families: Vec<Families<'_>> = cubes.iter().map(|c| c.backend.families()).collect();
    let labels: Vec<String> = (0..cubes.len()).map(|i| i.to_string()).collect();
    let help = "Cubes owned by the fleet router (actives and spares).";
    out.family("aoft_fleet_cubes", "gauge", help);
    out.sample("aoft_fleet_cubes", &[], cubes.len());
    let name = "aoft_fleet_jobs_routed_total";
    out.family(name, "counter", "Jobs routed to each cube, by cube index.");
    for (label, families) in labels.iter().zip(&families) {
        out.sample(name, &[("cube", label)], families.sink.submitted());
    }
    let name = "aoft_fleet_cube_health";
    out.family(name, "gauge", "Per-cube health: 1 healthy, 0 degraded.");
    for (label, cube) in labels.iter().zip(cubes) {
        out.sample(name, &[("cube", label)], u8::from(!cube.backend.degraded()));
    }
    let help = "Jobs resubmitted to another cube after their first cube failed them.";
    out.family("aoft_fleet_failovers_total", "counter", help);
    out.sample("aoft_fleet_failovers_total", &[], failovers.get());
    let help = "Spare cubes promoted to active after an active cube degraded.";
    out.family("aoft_fleet_spares_promoted_total", "counter", help);
    out.sample(
        "aoft_fleet_spares_promoted_total",
        &[],
        promoted(cubes, actives),
    );
    metrics::render(&mut out, &families, true);
    out.finish()
}

/// A routed job's claim ticket: [`JobHandle`] plus the fleet's failover
/// policy.
pub struct FleetHandle<'a, T> {
    router: &'a FleetRouter<T>,
    spec: JobSpec,
    handle: JobHandle,
    cube: usize,
    reroutes: usize,
}

impl<T> FleetHandle<'_, T> {
    /// The cube currently running the job.
    pub fn cube(&self) -> usize {
        self.cube
    }

    /// Blocks until the job completes somewhere in the fleet, failing over
    /// to another cube (up to `MAX_REROUTES`, 2, times) when a
    /// cube fails the job loudly.
    ///
    /// # Errors
    ///
    /// The final [`JobError`] once the failover budget is spent or the
    /// error is not retryable ([`JobError::Invalid`]).
    pub fn wait(mut self) -> Result<FleetReport, JobError> {
        loop {
            match self.handle.wait() {
                Ok(report) => {
                    return Ok(FleetReport {
                        cube: self.cube,
                        reroutes: self.reroutes,
                        report,
                    })
                }
                Err(err) => {
                    if !failover_worthy(&err) || self.reroutes >= MAX_REROUTES {
                        return Err(err);
                    }
                    let failed_cube = self.cube;
                    self.router.refresh_health();
                    let mut rerouted = self
                        .router
                        .route(vec![self.spec.clone()], Some(failed_cube));
                    match rerouted.pop().expect("one answer per spec") {
                        Ok(rerouted) => {
                            self.router.failovers.inc();
                            aoft_obs::emit(aoft_obs::Event::new("fleet_failover").detail(format!(
                                "cube {failed_cube} failed ({err}); rerouted to cube {}",
                                rerouted.cube
                            )));
                            self.cube = rerouted.cube;
                            self.handle = rerouted.handle;
                            self.reroutes += 1;
                        }
                        // Nowhere left to run it: surface the cube's error.
                        Err(_) => return Err(err),
                    }
                }
            }
        }
    }
}

/// Which job failures warrant trying a different cube: everything except a
/// shape mismatch, which would fail identically fleet-wide.
fn failover_worthy(err: &JobError) -> bool {
    !matches!(err, JobError::Invalid(_))
}

/// A completed fleet job: the cube's verified [`JobReport`] plus where and
/// how it ran.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The cube that produced the verified result.
    pub cube: usize,
    /// Failovers this job consumed (0 = first cube answered).
    pub reroutes: usize,
    /// The verified per-job report.
    pub report: JobReport,
}

/// A point-in-time view of the fleet.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Cubes in the fleet, spares included.
    pub cubes: usize,
    /// Cubes currently in the routing rotation.
    pub active: usize,
    /// Cubes still held in reserve.
    pub spares: usize,
    /// Indices of degraded cubes, deprioritized in routing: quarantine
    /// shrank them, or (a cube-host child) they left the rotation.
    pub degraded: Vec<usize>,
    /// Jobs routed to each cube, by index.
    pub jobs_routed: Vec<u64>,
    /// Jobs that failed over to another cube at least once.
    pub failovers: u64,
    /// Spares promoted into the active rotation.
    pub spares_promoted: u64,
    /// Each cube's own service metrics, by index. A cube-host child's are
    /// counted by the parent, and its `queue_depth` is its jobs in flight.
    pub per_cube: Vec<SvcMetrics>,
}

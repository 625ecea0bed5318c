//! The two serving workloads: closed loops of client threads calling
//! `QueryServer::handle` directly (the server keeps no queue of its own;
//! `handle` runs on the caller's thread).
//!
//! * `serve-mixed` — eight tenants split between two clients, the
//!   `serve-bench` request mix: one-shot calls cycling through the ten grid
//!   mechanisms plus open → 3 feeds → close session cycles, every fourth
//!   session leaked to idle eviction. One call in eleven asks for more ε
//!   than a tenant holds, and one session in eight is fed again after its
//!   close, so budget and unknown-session rejections arrive at a steady
//!   rate.
//! * `serve-sessions` — one tenant holding 2,048 open streaming-SVT
//!   sessions, fed round-robin, with periodic close + open rotations
//!   (every fourth rotation leaks its session instead). The sessions are
//!   split into two scripts; one client interleaves them, or two clients
//!   run one each and contend for the tenant lock.

use crate::calib::Speed;
use crate::stats::Hist;
use crate::{Interleaved, Window};
use free_gap_core::api::{AnyMechanism, CallScratch, Mechanism, MechanismOutput, QuerySlice};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{ExponentialTopK, MechanismError};
use free_gap_noise::rng::{derive_fast_stream, derive_stream_seed, splitmix64};
use free_gap_serve::server::RejectReason;
use free_gap_serve::{
    MechanismRequest, MechanismResponse, QueryServer, RequestBody, WorkerScratch,
};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client threads of `serve-mixed`, and scripts of `serve-sessions`.
const CLIENTS: usize = 2;
/// Each tenant's ε. Far above what a window can spend, so no tenant runs
/// dry; only the over-budget call is ever budget-rejected.
pub const BUDGET: f64 = 1e9;
/// The tenant the warm-up requests go to (never measured).
const WARM_TENANT: u64 = u64::MAX;
/// `serve-mixed` tenants, split evenly between the clients.
const MIXED_TENANTS: u64 = 8;
/// `serve-mixed` requests per block: calls around one session lifecycle.
const BLOCK: usize = 13;
/// Blocks in each tenant's cyclic script.
const MIXED_BLOCKS: usize = 64;
/// Selection size of the one-shot calls and the mixed workload's sessions.
const CALL_K: usize = 5;
/// ε of every one-shot call and session.
const CALL_EPSILON: f64 = 0.7;
/// `serve-sessions`: open sessions held by the one tenant.
const SESSIONS: usize = 2048;
/// `serve-sessions`: a client rotates one of its sessions every this many
/// steps (the other steps are feeds).
pub const ROTATE_EVERY: usize = 8;
/// `serve-sessions`: session-id generations per slot before ids repeat.
const GENERATIONS: u64 = 4;
/// `serve-sessions`: idle horizon in tenant ticks. A live session is fed
/// about every 2,300 ticks, so only leaked sessions go idle this long.
const SESSION_MAX_IDLE: u64 = 16_384;
/// `serve-sessions`: answers before a session halts.
const SESSION_K: usize = 10;
/// Queries per feed.
const FEED_LEN: usize = 4;

/// Kinds of handled request, for the traced per-kind latencies.
pub const KINDS: [&str; 5] = ["call", "open", "feed", "close", "rejected"];

/// The 64-query integer workload every call runs on (as in `serve-bench`).
pub fn serving_queries(seed: u64) -> Vec<f64> {
    let mut rng = derive_fast_stream(seed, 0x10AD);
    (0..64u64)
        .map(|j| (100_000.0 / (j + 1) as f64 + rng.gen_range(0.0..50.0)).round())
        .collect()
}

/// The query at descending rank 12: the SVT thresholds.
pub fn rank_threshold(queries: &[f64]) -> f64 {
    let mut sorted = queries.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[12]
}

/// The SVT each `serve-sessions` session runs.
pub fn session_svt(queries: &[f64]) -> Result<SparseVectorWithGap, MechanismError> {
    SparseVectorWithGap::new(SESSION_K, CALL_EPSILON, rank_threshold(queries), true)
}

/// The ten grid mechanisms at `k = 5`, `ε = 0.7`.
pub fn grid(threshold: f64) -> Result<Vec<AnyMechanism>, MechanismError> {
    let (k, e) = (CALL_K, CALL_EPSILON);
    Ok(vec![
        NoisyTopKWithGap::new(k, e, true)?.into(),
        ClassicNoisyTopK::new(k, e, true)?.into(),
        DiscreteNoisyTopKWithGap::new(k, e, true)?.into(),
        ExponentialTopK::new(ExponentialMechanism::new(e, true)?, k)?.into(),
        StaircaseMechanism::new(e)?.into(),
        SparseVectorWithGap::new(k, e, threshold, true)?.into(),
        ClassicSparseVector::new(k, e, threshold, true)?.into(),
        AdaptiveSparseVector::new(k, e, threshold, true)?.into(),
        MultiBranchAdaptiveSparseVector::new(k, e, threshold, true, 3)?.into(),
        DiscreteSparseVectorWithGap::new(k, e, threshold, true)?.into(),
    ])
}

/// The seed `QueryServer` derives tenant `tenant`'s noise root from —
/// the benchmark needs it to replay a call on the server's own stream.
fn tenant_seed(server_seed: u64, tenant: u64) -> u64 {
    let mut s = server_seed ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

fn feed(session: u64, queries: &[f64], step: usize) -> RequestBody {
    let start = (step * 3) % (queries.len() - FEED_LEN);
    RequestBody::Feed {
        session,
        queries: queries[start..start + FEED_LEN].to_vec(),
    }
}

/// Request `i` of a mixed tenant's cyclic script: `serve-bench`'s block of
/// calls around open → 3 feeds → close, leaking every fourth session and
/// feeding one closed session in eight again.
fn mixed_request(
    grid: &[AnyMechanism],
    svt: SparseVectorWithGap,
    queries: &[f64],
    tenant: u64,
    i: usize,
) -> MechanismRequest {
    let (slot, block) = (i % BLOCK, i / BLOCK);
    let opened = (block * BLOCK + 5) as u64;
    let body = match slot {
        5 => RequestBody::OpenSession {
            session: opened,
            svt,
        },
        6..=8 => feed(opened, queries, i),
        9 if block % 4 != 3 => RequestBody::CloseSession { session: opened },
        12 if block % 8 == 1 => feed(opened, queries, i),
        _ => RequestBody::Call {
            mechanism: grid[(tenant as usize + i) % grid.len()],
            queries: queries.to_vec(),
        },
    };
    MechanismRequest { tenant, body }
}

/// What a request costs the tenant when accepted.
fn request_cost(req: &MechanismRequest) -> f64 {
    match &req.body {
        RequestBody::Call { mechanism, .. } => mechanism.cost(),
        RequestBody::OpenSession { svt, .. } => svt.epsilon(),
        _ => 0.0,
    }
}

/// The ε a session hands back on close or eviction after `answered` ⊤s.
fn unspent(svt: &SparseVectorWithGap, answered: usize) -> f64 {
    let k = svt.k();
    svt.epsilon2() * k.saturating_sub(answered) as f64 / k as f64
}

/// The request kind a latency sample is filed under.
fn kind(req: &MechanismRequest, resp: &MechanismResponse) -> usize {
    if resp.is_rejected() {
        return 4;
    }
    match req.body {
        RequestBody::Call { .. } => 0,
        RequestBody::OpenSession { .. } => 1,
        RequestBody::Feed { .. } => 2,
        RequestBody::CloseSession { .. } => 3,
    }
}

/// Cap on ledger operations a traced lane records for the ledger replay.
const LEDGER_RECORD_CAP: usize = 200_000;

/// A client's view of one tenant script: position, response digest and
/// the budget it saw debited and released.
#[derive(Debug)]
pub struct Lane {
    tenant: u64,
    script: usize,
    svt: SparseVectorWithGap,
    /// Requests issued.
    pos: usize,
    /// Order-sensitive fold of every response digest.
    digest: u64,
    accepted: f64,
    released: f64,
    /// Open or leaked sessions → ⊤ answers seen so far.
    sessions: HashMap<u64, usize>,
    /// Noise sub-streams the server has derived for this tenant.
    seq: u64,
    /// Responses that are failures (invalid, unknown tenant, duplicate
    /// session, a tenant running dry, or an inconsistent response).
    failed: u64,
    /// The first failure, for the report.
    first_failure: Option<String>,
    /// Budget rejections (designed: the over-budget call).
    pub budget_rejects: u64,
    /// Unknown-session rejections (designed: feeds after close).
    pub unknown_session: u64,
    /// Ledger debits attempted and releases credited, in order, when
    /// recording (`true` = debit).
    pub ledger_ops: Option<Vec<(bool, f64)>>,
}

impl Lane {
    fn new(tenant: u64, script: usize, svt: SparseVectorWithGap) -> Self {
        Self {
            tenant,
            script,
            svt,
            pos: 0,
            digest: 0,
            accepted: 0.0,
            released: 0.0,
            sessions: HashMap::new(),
            seq: 0,
            failed: 0,
            first_failure: None,
            budget_rejects: 0,
            unknown_session: 0,
            ledger_ops: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    fn ledger(&mut self, debit: bool, eps: f64) {
        if let Some(ops) = &mut self.ledger_ops {
            if ops.len() < LEDGER_RECORD_CAP && eps > 0.0 {
                ops.push((debit, eps));
            }
        }
    }

    fn release(&mut self, eps: f64) {
        self.released += eps;
        self.ledger(false, eps);
    }

    /// Folds one response into the lane's digest and budget accounting,
    /// and classifies it.
    fn tally(&mut self, req: &MechanismRequest, resp: &MechanismResponse) {
        self.digest = resp.digest(self.digest);
        let cost = request_cost(req);
        if matches!(
            req.body,
            RequestBody::Call { .. } | RequestBody::OpenSession { .. }
        ) {
            self.ledger(true, cost);
        }
        match (&req.body, resp) {
            (RequestBody::Call { .. }, MechanismResponse::Output(_)) => {
                self.accepted += cost;
                self.seq += 1;
            }
            (
                RequestBody::OpenSession { session, .. },
                MechanismResponse::SessionOpened { cost, .. },
            ) => {
                self.accepted += cost;
                self.seq += 1;
                // An id still on the books was leaked and has been evicted
                // since: the server released its unspent share then.
                if let Some(answered) = self.sessions.insert(*session, 0) {
                    self.release(unspent(&self.svt, answered));
                }
            }
            (RequestBody::Feed { session, .. }, MechanismResponse::Decisions(d)) => {
                let above = d.iter().filter(|x| x.is_some()).count();
                match self.sessions.get_mut(session) {
                    Some(answered) => *answered += above,
                    None => self.fail(format!("feed answered for session {session} never opened")),
                }
            }
            (
                RequestBody::CloseSession { session },
                MechanismResponse::SessionClosed { released, .. },
            ) => {
                let expected = self.sessions.remove(session).map(|a| unspent(&self.svt, a));
                if expected != Some(*released) {
                    self.fail(format!(
                        "session {session} released {released}, expected {expected:?}"
                    ));
                }
                self.release(*released);
            }
            (_, MechanismResponse::Rejected(RejectReason::Budget(_))) => {
                self.budget_rejects += 1;
                if cost <= BUDGET {
                    self.fail(format!("tenant {} ran out of budget", self.tenant));
                }
            }
            (
                RequestBody::Feed { session, .. } | RequestBody::CloseSession { session },
                MechanismResponse::Rejected(RejectReason::UnknownSession),
            ) => {
                self.unknown_session += 1;
                if let Some(answered) = self.sessions.remove(session) {
                    self.release(unspent(&self.svt, answered));
                }
            }
            (RequestBody::Call { .. }, MechanismResponse::Rejected(RejectReason::Invalid(e))) => {
                // The server drew a stream for the call, then refunded it.
                self.seq += 1;
                self.fail(format!("invalid call: {e}"));
            }
            (_, MechanismResponse::Rejected(reason)) => self.fail(format!("rejected: {reason:?}")),
            (body, resp) => self.fail(format!("response {resp:?} to {body:?}")),
        }
    }
}

/// Samples a client gathered over one window.
#[derive(Debug)]
struct ClientRun {
    ops: u64,
    /// The client's working time, seconds (scaled when calibrated).
    busy: f64,
    hist: Hist,
    /// Per-kind latencies (traced runs only).
    kinds: Option<Vec<Hist>>,
}

/// A serving workload's server, scripts and per-client state.
pub struct Serving {
    server: QueryServer,
    server_seed: u64,
    scripts: Vec<Vec<MechanismRequest>>,
    /// Each client's lanes, in the order it serves them round-robin.
    clients: Vec<Vec<Lane>>,
    workers: Vec<WorkerScratch>,
    tenants: Vec<u64>,
    /// Per-kind latencies over every traced window so far.
    kinds: Vec<Hist>,
    /// Whether windows scale their timings to the reference machine speed.
    scaled: bool,
}

/// Which serving workload, and for `serve-sessions` how many clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `serve-mixed`.
    Mixed,
    /// `serve-sessions` with the given client count (both clients' scripts
    /// run either way; one client interleaves them).
    Sessions(usize),
}

impl Serving {
    /// Builds queries and scripts, registers tenants, opens the initial
    /// sessions and warms each worker's scratch on a separate tenant.
    pub fn setup(seed: u64, shape: Shape) -> Result<Self, String> {
        let server_seed = derive_stream_seed(seed, 3);
        let queries = serving_queries(seed);
        let threshold = rank_threshold(&queries);
        let grid = grid(threshold).map_err(|e| e.to_string())?;
        let server = match shape {
            Shape::Mixed => QueryServer::new(server_seed),
            Shape::Sessions(_) => QueryServer::new(server_seed).with_max_idle(SESSION_MAX_IDLE),
        };
        let mut s = Self {
            server,
            server_seed,
            scripts: Vec::new(),
            clients: Vec::new(),
            workers: Vec::new(),
            tenants: Vec::new(),
            kinds: KINDS.iter().map(|_| Hist::new()).collect(),
            scaled: true,
        };
        match shape {
            Shape::Mixed => s.build_mixed(&grid, &queries, threshold)?,
            Shape::Sessions(clients) => s.build_sessions(&queries, clients)?,
        }
        s.warm(&grid, &queries, threshold)?;
        Ok(s)
    }

    fn register(&mut self, tenant: u64) -> Result<(), String> {
        self.tenants.push(tenant);
        self.server
            .register_tenant(tenant, BUDGET)
            .map_err(|e| e.to_string())
    }

    fn build_mixed(
        &mut self,
        grid: &[AnyMechanism],
        queries: &[f64],
        threshold: f64,
    ) -> Result<(), String> {
        let svt = SparseVectorWithGap::new(CALL_K, CALL_EPSILON, threshold, true)
            .map_err(|e| e.to_string())?;
        let mut calls = grid.to_vec();
        // One call in eleven asks for more than a tenant's whole budget.
        calls.push(
            NoisyTopKWithGap::new(CALL_K, 4.0 * BUDGET, true)
                .map_err(|e| e.to_string())?
                .into(),
        );
        let per_client = MIXED_TENANTS as usize / CLIENTS;
        self.clients = (0..CLIENTS).map(|_| Vec::new()).collect();
        for t in 0..MIXED_TENANTS {
            self.register(t)?;
            self.scripts.push(
                (0..MIXED_BLOCKS * BLOCK)
                    .map(|i| mixed_request(&calls, svt, queries, t, i))
                    .collect(),
            );
            self.clients[t as usize / per_client].push(Lane::new(t, t as usize, svt));
        }
        self.workers = (0..CLIENTS).map(|_| WorkerScratch::new()).collect();
        Ok(())
    }

    /// Client `c` owns the slots `j ≡ c (mod CLIENTS)`. Slot `j` holds
    /// session `j + SESSIONS·g` for generation `g`; each rotation closes
    /// (or, every fourth time, leaks) the slot's session and opens the
    /// next generation. The script is one full cycle: every slot rotates
    /// `GENERATIONS` times, so it wraps back to its starting state.
    fn build_sessions(&mut self, queries: &[f64], clients: usize) -> Result<(), String> {
        let svt = session_svt(queries).map_err(|e| e.to_string())?;
        self.register(0)?;
        let id = |slot: usize, g: u64| (slot as u64) + SESSIONS as u64 * (g % GENERATIONS);
        let mut lanes = Vec::new();
        for c in 0..CLIENTS {
            let slots: Vec<usize> = (c..SESSIONS).step_by(CLIENTS).collect();
            let mut gen = vec![0u64; slots.len()];
            let (mut next_feed, mut next_rotation) = (0usize, 0usize);
            let mut script = Vec::new();
            let steps = slots.len() * ROTATE_EVERY * GENERATIONS as usize;
            for step in 0..steps {
                if step % ROTATE_EVERY == ROTATE_EVERY - 1 {
                    let r = next_rotation % slots.len();
                    if next_rotation % 4 != 3 {
                        script.push(RequestBody::CloseSession {
                            session: id(slots[r], gen[r]),
                        });
                    }
                    gen[r] += 1;
                    script.push(RequestBody::OpenSession {
                        session: id(slots[r], gen[r]),
                        svt,
                    });
                    next_rotation += 1;
                } else {
                    let f = next_feed % slots.len();
                    script.push(feed(id(slots[f], gen[f]), queries, step));
                    next_feed += 1;
                }
            }
            self.scripts.push(
                script
                    .into_iter()
                    .map(|body| MechanismRequest { tenant: 0, body })
                    .collect(),
            );
            let mut lane = Lane::new(0, c, svt);
            // The initial sessions are opened as part of set-up.
            let mut worker = WorkerScratch::new();
            for &slot in &slots {
                let req = MechanismRequest {
                    tenant: 0,
                    body: RequestBody::OpenSession {
                        session: id(slot, 0),
                        svt,
                    },
                };
                let resp = self.server.handle(&req, &mut worker);
                lane.tally(&req, &resp);
            }
            lanes.push(lane);
        }
        self.clients = if clients == 1 {
            vec![lanes]
        } else {
            lanes.into_iter().map(|l| vec![l]).collect()
        };
        self.workers = (0..self.clients.len())
            .map(|_| WorkerScratch::new())
            .collect();
        Ok(())
    }

    /// Runs every request kind once per worker on the warm-up tenant, so
    /// scratch buffers and the tenant map are warm before timing.
    fn warm(
        &mut self,
        grid: &[AnyMechanism],
        queries: &[f64],
        threshold: f64,
    ) -> Result<(), String> {
        self.server
            .register_tenant(WARM_TENANT, BUDGET)
            .map_err(|e| e.to_string())?;
        let svt = SparseVectorWithGap::new(CALL_K, CALL_EPSILON, threshold, true)
            .map_err(|e| e.to_string())?;
        for (w, worker) in self.workers.iter_mut().enumerate() {
            let session = w as u64;
            let mut bodies: Vec<RequestBody> = grid
                .iter()
                .map(|&mechanism| RequestBody::Call {
                    mechanism,
                    queries: queries.to_vec(),
                })
                .collect();
            bodies.push(RequestBody::OpenSession { session, svt });
            bodies.push(feed(session, queries, 0));
            bodies.push(RequestBody::CloseSession { session });
            for body in bodies {
                let resp = self.server.handle(
                    &MechanismRequest {
                        tenant: WARM_TENANT,
                        body,
                    },
                    worker,
                );
                if resp.is_rejected() {
                    return Err(format!("warm-up request rejected: {resp:?}"));
                }
            }
        }
        Ok(())
    }

    /// Reports raw wall-clock timings (the traced run compares them with
    /// standalone layer timings, which are raw too).
    pub fn unscaled(mut self) -> Self {
        self.scaled = false;
        self
    }

    /// Enables recording of ledger operations on every lane.
    pub fn record_ledger(&mut self) {
        for lane in self.clients.iter_mut().flatten() {
            lane.ledger_ops = Some(Vec::new());
        }
    }

    /// Runs the closed loop for `seconds`: each client serves its lanes
    /// round-robin, one request at a time, timing `handle` alone. Timings
    /// are scaled to the reference machine speed unless
    /// [`unscaled`](Self::unscaled) was called.
    pub fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let scaled = self.scaled;
        let server = &self.server;
        let scripts = &self.scripts;
        let barrier = Barrier::new(self.clients.len());
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.workers.iter_mut())
                .map(|(lanes, worker)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        client_loop(server, scripts, lanes, worker, seconds, traced, scaled)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut hist = Hist::new();
        for r in &runs {
            hist.merge(&r.hist);
        }
        // The clients run side by side, so their rates add up.
        let ops: u64 = runs.iter().map(|r| r.ops).sum();
        let rate: f64 = runs.iter().map(|r| r.ops as f64 / r.busy).sum();
        let failed = self.lanes().map(|l| l.failed).sum();
        let mut window = Window::new(ops, failed, ops as f64 / rate, hist);
        if let Some(why) = self.lanes().find_map(|l| l.first_failure.clone()) {
            window.note(why);
        }
        for kinds in runs.iter().filter_map(|r| r.kinds.as_ref()) {
            for (total, h) in self.kinds.iter_mut().zip(kinds) {
                total.merge(h);
            }
        }
        window
    }

    /// Alternates untraced and traced windows of `slice` seconds until
    /// `seconds` have passed, so machine drift hits both modes alike.
    pub fn interleaved(&mut self, seconds: f64, slice: f64) -> Interleaved {
        let mut plain = self.window(slice, false);
        let mut traced = self.window(slice, true);
        while plain.elapsed_s + traced.elapsed_s < seconds {
            plain.merge(self.window(slice, false));
            traced.merge(self.window(slice, true));
        }
        Interleaved { plain, traced }
    }

    /// Every lane of every client.
    pub fn lanes(&self) -> impl Iterator<Item = &Lane> {
        self.clients.iter().flatten()
    }

    /// Per-kind latencies of every traced window so far, in `KINDS` order.
    pub fn kind_hists(&self) -> &[Hist] {
        &self.kinds
    }

    /// Sessions evicted so far.
    pub fn evictions(&self) -> u64 {
        self.server.evictions()
    }

    /// Open sessions across the measured tenants.
    pub fn open_sessions(&self) -> usize {
        self.tenants
            .iter()
            .filter_map(|&t| self.server.open_sessions(t))
            .sum()
    }

    /// `serve-mixed`'s digest check: a fresh server replays each tenant's
    /// requests in order from a single client, and every tenant's response
    /// digest must equal the timed run's. Tenants are independent, so the
    /// replay splits them across the same client threads as the run.
    pub fn check_replay(&self, seed: u64) -> Result<(), String> {
        let replay = Self::setup(seed, Shape::Mixed)?;
        let replay_lanes = |lanes: &[Lane]| -> Result<(), String> {
            let mut worker = WorkerScratch::new();
            for lane in lanes {
                let script = &replay.scripts[lane.script];
                let mut digest = 0;
                for i in 0..lane.pos {
                    digest = replay
                        .server
                        .handle(&script[i % script.len()], &mut worker)
                        .digest(digest);
                }
                if digest != lane.digest {
                    return Err(format!(
                        "tenant {} digest {digest:016x} after a one-client replay of {} requests, {:016x} in the timed run",
                        lane.tenant, lane.pos, lane.digest
                    ));
                }
            }
            Ok(())
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .map(|lanes| scope.spawn(|| replay_lanes(lanes)))
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("replay thread panicked"))
        })
    }

    /// Closes every session the clients still hold (leaked ones included),
    /// then checks each tenant's ledger: accepted costs minus released
    /// shares must equal what the server reports spent.
    pub fn check_ledgers(&mut self) -> Result<(), String> {
        let mut worker = WorkerScratch::new();
        for lane in self.clients.iter_mut().flatten() {
            let mut ids: Vec<u64> = lane.sessions.keys().copied().collect();
            ids.sort_unstable();
            for session in ids {
                let req = MechanismRequest {
                    tenant: lane.tenant,
                    body: RequestBody::CloseSession { session },
                };
                let resp = self.server.handle(&req, &mut worker);
                lane.tally(&req, &resp);
            }
            if let Some(why) = &lane.first_failure {
                return Err(why.clone());
            }
        }
        for &t in &self.tenants {
            let (accepted, released) = self
                .lanes()
                .filter(|l| l.tenant == t)
                .fold((0.0, 0.0), |(a, r), l| (a + l.accepted, r + l.released));
            let spent = self.server.spent(t).ok_or("tenant vanished")?;
            if (accepted - released - spent).abs() > 1e-9 * accepted.max(1.0) {
                return Err(format!(
                    "tenant {t}: accepted {accepted} − released {released} ≠ spent {spent}"
                ));
            }
        }
        Ok(())
    }

    /// `serve.handle_self`: one client serves the mixed scripts for
    /// `seconds`; after each accepted call it replays the same call through
    /// `call_batched` on the stream the server derived for it, checks the
    /// outputs are equal, and records `handle` time minus replay time.
    pub fn handle_self(&mut self, seconds: f64) -> (Vec<f64>, u64) {
        let mut worker = WorkerScratch::new();
        let mut scratch = CallScratch::new();
        let mut out = MechanismOutput::Indices(Vec::new());
        let mut diffs = Vec::new();
        let mut mismatches = 0;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut lanes: Vec<&mut Lane> = self.clients.iter_mut().flatten().collect();
        'outer: loop {
            for lane in lanes.iter_mut() {
                let script = &self.scripts[lane.script];
                let req = &script[lane.pos % script.len()];
                let t0 = Instant::now();
                let resp = self.server.handle(req, &mut worker);
                let handle_ns = t0.elapsed().as_nanos() as f64;
                lane.pos += 1;
                lane.tally(req, &resp);
                if let (
                    RequestBody::Call { mechanism, queries },
                    MechanismResponse::Output(served),
                ) = (&req.body, &resp)
                {
                    let mut rng =
                        derive_fast_stream(tenant_seed(self.server_seed, lane.tenant), lane.seq);
                    let t1 = Instant::now();
                    let replayed = mechanism.call_batched(
                        &QuerySlice::new(queries),
                        &mut rng,
                        &mut scratch,
                        &mut out,
                    );
                    let replay_ns = t1.elapsed().as_nanos() as f64;
                    if replayed.is_err() || &out != served {
                        mismatches += 1;
                    }
                    diffs.push(handle_ns - replay_ns);
                }
                if Instant::now() >= deadline {
                    break 'outer;
                }
            }
        }
        (diffs, mismatches)
    }
}

fn client_loop(
    server: &QueryServer,
    scripts: &[Vec<MechanismRequest>],
    lanes: &mut [Lane],
    worker: &mut WorkerScratch,
    seconds: f64,
    traced: bool,
    scaled: bool,
) -> ClientRun {
    let mut hist = Hist::new();
    let mut kinds: Option<Vec<Hist>> = traced.then(|| KINDS.iter().map(|_| Hist::new()).collect());
    let mut speed = scaled.then(Speed::new);
    let mut factor = 1.0;
    // Each request's share of the client's time runs from its start to the
    // next request's start, less any calibration probe in between.
    let mut busy = 0.0;
    let mut last = Instant::now();
    let mut probed = Duration::ZERO;
    let deadline = last + Duration::from_secs_f64(seconds);
    let mut ops = 0;
    'outer: loop {
        for lane in lanes.iter_mut() {
            let script = &scripts[lane.script];
            let req = &script[lane.pos % script.len()];
            let t0 = Instant::now();
            busy += (t0 - last).saturating_sub(probed).as_secs_f64() / factor;
            factor = speed.as_ref().map_or(1.0, Speed::factor);
            last = t0;
            let resp = server.handle(req, worker);
            let t1 = Instant::now();
            let ns = ((t1 - t0).as_nanos() as f64 / factor) as u64;
            hist.record(ns);
            if let Some(kinds) = &mut kinds {
                kinds[kind(req, &resp)].record(ns);
            }
            ops += 1;
            lane.pos += 1;
            lane.tally(req, &resp);
            probed = speed.as_mut().map_or(Duration::ZERO, Speed::tick);
            if t1 >= deadline {
                busy += (t1 - t0).as_secs_f64() / factor;
                break 'outer;
            }
        }
    }
    ClientRun {
        ops,
        busy,
        hist,
        kinds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_run_replays_and_balances() {
        let mut s = Serving::setup(5, Shape::Mixed).unwrap();
        let w = s.window(0.05, true);
        assert!(w.ops > 0);
        assert_eq!(w.failed, 0, "{:?}", w.problems);
        s.check_replay(5).unwrap();
        s.check_ledgers().unwrap();
        assert!(s.lanes().map(|l| l.budget_rejects).sum::<u64>() > 0);
        assert!(s.lanes().map(|l| l.unknown_session).sum::<u64>() > 0);
    }

    #[test]
    fn sessions_run_balances_for_one_and_two_clients() {
        for clients in [1, 2] {
            let mut s = Serving::setup(6, Shape::Sessions(clients)).unwrap();
            assert_eq!(s.open_sessions(), SESSIONS);
            let w = s.window(0.05, false);
            assert!(w.ops > 0);
            assert_eq!(w.failed, 0, "{:?}", w.problems);
            s.check_ledgers().unwrap();
            assert_eq!(s.open_sessions(), 0);
        }
    }

    #[test]
    fn session_scripts_wrap_to_their_starting_state() {
        // Replaying a whole cycle and more must never hit a duplicate or
        // missing session: ids are reused only after their old session
        // was closed or evicted.
        let mut s = Serving::setup(7, Shape::Sessions(1)).unwrap();
        let cycle: usize = s.scripts.iter().map(Vec::len).sum();
        let mut worker = WorkerScratch::new();
        let lanes = &mut s.clients[0];
        for _ in 0..cycle + 100 {
            for lane in lanes.iter_mut() {
                let script = &s.scripts[lane.script];
                let req = &script[lane.pos % script.len()];
                let resp = s.server.handle(req, &mut worker);
                lane.pos += 1;
                lane.tally(req, &resp);
            }
        }
        assert!(
            lanes.iter().all(|l| l.failed == 0),
            "{:?}",
            lanes[0].first_failure
        );
        assert!(s.server.evictions() > 0);
    }

    #[test]
    fn handle_self_replays_bit_identically() {
        let mut s = Serving::setup(8, Shape::Mixed).unwrap();
        let (diffs, mismatches) = s.handle_self(0.05);
        assert!(!diffs.is_empty());
        assert_eq!(mismatches, 0);
    }
}

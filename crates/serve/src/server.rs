//! The multi-tenant query server: one unified request/response surface
//! over every grid mechanism, with per-tenant budget ledgers, derived
//! noise sub-streams, and open streaming-SVT sessions.
//!
//! ## Concurrency and determinism
//!
//! Tenants are independent: each holds one mutex over its
//! [`BudgetLedger`], sessions and counters, so every ε flow (debit,
//! refund of a failed call, session release on close or eviction) is a
//! transition of the tenant state under that one lock, and requests for
//! different tenants never contend beyond a read-lock on the tenant map.
//! All noise for a tenant comes from sub-streams derived off `(server
//! seed, tenant id, per-tenant request sequence)` via the
//! sharded-generator convention
//! ([`free_gap_noise::rng::derive_fast_stream`]): given each tenant's
//! request order, every response — outputs, rejections, evictions — is
//! bit-reproducible regardless of how many worker threads serve the
//! tenants or how the scheduler interleaves them (`tests/serve.rs` pins
//! 1-thread vs 4-thread digests).
//!
//! ## Sessions and eviction
//!
//! [`RequestBody::OpenSession`] debits the SVT's full ε and pins the
//! resumable run state; [`RequestBody::Feed`] drives it incrementally.
//! Idle sessions are evicted inline — each request advances the tenant's
//! logical clock, and sessions untouched for more than `max_idle` ticks
//! are closed before the request is served, releasing their unspent
//! query-budget share exactly once (eviction and explicit close both go
//! through map removal under the tenant lock).
//!
//! The tenant indexes its open sessions by the tick that last touched
//! them. A request touches at most one session and advances the clock by
//! one tick, so ticks are unique keys and at most one session newly
//! expires per request: eviction pops the front of the index instead of
//! scanning the session table, O(log S) per request for S open sessions.

use crate::ledger::BudgetLedger;
use crate::session::SvtSession;
use free_gap_core::api::{AnyMechanism, CallScratch, Mechanism, MechanismOutput, QuerySlice};
use free_gap_core::sparse_vector::SparseVectorWithGap;
use free_gap_core::MechanismError;
use free_gap_noise::rng::{derive_fast_stream, splitmix64};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// A request against one tenant's budget.
#[derive(Debug, Clone)]
pub struct MechanismRequest {
    /// The tenant whose ledger and sessions the request runs against.
    pub tenant: u64,
    /// What to do.
    pub body: RequestBody,
}

/// The unified call surface: one-shot mechanism calls plus the streaming
/// session lifecycle.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// One mechanism call: debit its cost, run it, return the output.
    Call {
        /// Which mechanism to run.
        mechanism: AnyMechanism,
        /// The query workload.
        queries: Vec<f64>,
    },
    /// Open a streaming-SVT session (debits the SVT's full ε).
    OpenSession {
        /// Caller-chosen session id, unique per tenant.
        session: u64,
        /// The gap-releasing SVT to run.
        svt: SparseVectorWithGap,
    },
    /// Feed queries to an open session.
    Feed {
        /// The session to drive.
        session: u64,
        /// Queries to feed, in order.
        queries: Vec<f64>,
    },
    /// Close a session, releasing its unspent budget share.
    CloseSession {
        /// The session to close.
        session: u64,
    },
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The tenant was never registered.
    UnknownTenant,
    /// No open session with that id.
    UnknownSession,
    /// A session with that id is already open.
    SessionExists,
    /// The tenant's remaining budget cannot cover the call — the typed
    /// rejection carries the requested and remaining ε.
    Budget(MechanismError),
    /// The request itself was malformed (bad workload, bad parameters).
    Invalid(MechanismError),
}

/// The server's answer to one [`MechanismRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismResponse {
    /// A one-shot call's output.
    Output(MechanismOutput),
    /// A session was opened at the given budget cost.
    SessionOpened {
        /// The session id.
        session: u64,
        /// The ε debited up front.
        cost: f64,
    },
    /// Decisions for the fed queries (one per query observed before the
    /// halt; `Some(gap)` above threshold, `None` below).
    Decisions(Vec<Option<f64>>),
    /// A session was closed.
    SessionClosed {
        /// The session id.
        session: u64,
        /// The unspent ε share returned to the tenant's ledger.
        released: f64,
    },
    /// The request was rejected; the tenant's state is unchanged except
    /// where the reason says otherwise.
    Rejected(RejectReason),
}

impl MechanismResponse {
    /// True for [`Rejected`](Self::Rejected).
    pub fn is_rejected(&self) -> bool {
        matches!(self, Self::Rejected(_))
    }

    /// True for a budget rejection specifically.
    pub fn is_budget_rejected(&self) -> bool {
        matches!(self, Self::Rejected(RejectReason::Budget(_)))
    }

    /// Order-sensitive fingerprint of the response — what the serving
    /// benchmark folds per tenant to pin bit-reproducibility.
    pub fn digest(&self, seed: u64) -> u64 {
        fn mix(acc: u64, v: u64) -> u64 {
            let mut s = acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            splitmix64(&mut s)
        }
        match self {
            Self::Output(out) => out.digest(mix(seed, 1)),
            Self::SessionOpened { session, cost } => {
                mix(mix(mix(seed, 2), *session), cost.to_bits())
            }
            Self::Decisions(decisions) => {
                let mut acc = mix(seed, 3);
                for d in decisions {
                    acc = match d {
                        Some(gap) => mix(mix(acc, 1), gap.to_bits()),
                        None => mix(acc, 2),
                    };
                }
                acc
            }
            Self::SessionClosed { session, released } => {
                mix(mix(mix(seed, 4), *session), released.to_bits())
            }
            Self::Rejected(reason) => {
                let tag = match reason {
                    RejectReason::UnknownTenant => 10,
                    RejectReason::UnknownSession => 11,
                    RejectReason::SessionExists => 12,
                    RejectReason::Budget(_) => 13,
                    RejectReason::Invalid(_) => 14,
                };
                mix(mix(seed, 5), tag)
            }
        }
    }
}

/// Per-worker reusable state: the mechanism scratch pool and the output
/// buffer [`QueryServer::handle`] writes into. One per serving thread —
/// the `parallel_runs_with_state` pattern — so a warm worker serves
/// requests without per-request allocation in the mechanism cores.
#[derive(Debug)]
pub struct WorkerScratch {
    call: CallScratch,
    out: MechanismOutput,
}

impl WorkerScratch {
    /// Fresh worker state (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            call: CallScratch::new(),
            out: MechanismOutput::Indices(Vec::new()),
        }
    }
}

impl Default for WorkerScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug)]
struct TenantInner {
    ledger: BudgetLedger,
    sessions: HashMap<u64, SvtSession>,
    /// Open sessions by last-touch tick (tick → session id), one entry
    /// per entry of `sessions`; the front is the stalest session.
    idle: BTreeMap<u64, u64>,
    /// Logical clock: one tick per request for this tenant. Drives idle
    /// eviction deterministically (no wall clock).
    clock: u64,
    /// Noise-stream sequence: one increment per accepted noise-drawing
    /// request, so every call and session gets its own derived sub-stream.
    seq: u64,
    evicted: u64,
}

#[derive(Debug)]
struct Tenant {
    /// Per-tenant RNG root, derived from the server seed and tenant id.
    seed: u64,
    inner: Mutex<TenantInner>,
}

impl Tenant {
    fn lock(&self) -> MutexGuard<'_, TenantInner> {
        // A poisoned lock means another thread panicked mid-request. The
        // ledger's debit and release mutate only on success, and session
        // state is only mutated through methods that leave it consistent,
        // so the inner value is still sound and serving can continue.
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        // Every holder leaves the idle index in step with the session
        // table, so this checks the state each request left behind.
        debug_assert_eq!(inner.idle.len(), inner.sessions.len());
        inner
    }
}

/// The long-lived multi-tenant serving layer.
#[derive(Debug)]
pub struct QueryServer {
    seed: u64,
    max_idle: u64,
    tenants: RwLock<HashMap<u64, Arc<Tenant>>>,
}

/// Default idle-eviction horizon, in per-tenant logical ticks.
pub const DEFAULT_MAX_IDLE: u64 = 64;

impl QueryServer {
    /// Creates a server whose noise derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_idle: DEFAULT_MAX_IDLE,
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// Overrides the idle-eviction horizon (logical ticks of the owning
    /// tenant's clock a session may sit untouched).
    pub fn with_max_idle(mut self, max_idle: u64) -> Self {
        self.max_idle = max_idle;
        self
    }

    /// Registers a tenant with a total privacy budget.
    ///
    /// # Errors
    /// Rejects malformed budgets ([`MechanismError::InvalidEpsilon`]) and
    /// duplicate registrations ([`MechanismError::InvalidSplit`]).
    pub fn register_tenant(&self, tenant: u64, epsilon: f64) -> Result<(), MechanismError> {
        let ledger = BudgetLedger::new(epsilon)?;
        let mut s = self.seed ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut s);
        let mut map = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if map.contains_key(&tenant) {
            return Err(MechanismError::InvalidSplit {
                reason: "tenant already registered",
            });
        }
        map.insert(
            tenant,
            Arc::new(Tenant {
                seed,
                inner: Mutex::new(TenantInner {
                    ledger,
                    sessions: HashMap::new(),
                    idle: BTreeMap::new(),
                    clock: 0,
                    seq: 0,
                    evicted: 0,
                }),
            }),
        );
        Ok(())
    }

    /// The tenant's remaining budget, if registered.
    pub fn remaining(&self, tenant: u64) -> Option<f64> {
        self.tenant(tenant).map(|t| t.lock().ledger.remaining())
    }

    /// The tenant's spent budget, if registered.
    pub fn spent(&self, tenant: u64) -> Option<f64> {
        self.tenant(tenant).map(|t| t.lock().ledger.spent())
    }

    /// Open sessions for the tenant, if registered.
    pub fn open_sessions(&self, tenant: u64) -> Option<usize> {
        self.tenant(tenant).map(|t| t.lock().sessions.len())
    }

    /// Total sessions evicted for idleness, across all tenants.
    pub fn evictions(&self) -> u64 {
        let map = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        // lint:allow(lock-discipline): map-read → tenant-inner is the one global lock order (registration and lookup take them the same way), so this nesting cannot invert
        map.values().map(|t| t.lock().evicted).sum()
    }

    fn tenant(&self, tenant: u64) -> Option<Arc<Tenant>> {
        let map = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        map.get(&tenant).map(Arc::clone)
    }

    /// Serves one request. `worker` is the calling thread's reusable
    /// scratch; requests for the same tenant are serialized by the tenant
    /// lock, which also guards the budget ledger, so a debit checks and
    /// mutates in one step and any number of workers may call this
    /// concurrently.
    pub fn handle(&self, req: &MechanismRequest, worker: &mut WorkerScratch) -> MechanismResponse {
        let Some(tenant) = self.tenant(req.tenant) else {
            return MechanismResponse::Rejected(RejectReason::UnknownTenant);
        };
        let mut inner = tenant.lock();
        inner.clock += 1;
        let now = inner.clock;
        self.evict_idle(&mut inner, now);
        match &req.body {
            RequestBody::Call { mechanism, queries } => {
                let cost = mechanism.cost();
                if let Err(e) = inner.ledger.try_debit(cost) {
                    return MechanismResponse::Rejected(budget_reject(e));
                }
                inner.seq += 1;
                let mut rng = derive_fast_stream(tenant.seed, inner.seq);
                let slice = QuerySlice::new(queries);
                // lint:allow(lock-discipline): per-tenant serialization is the determinism contract — the response stream of a tenant must be a function of its own request order, so its guard intentionally spans the call; other tenants hold other guards
                match mechanism.call_batched(&slice, &mut rng, &mut worker.call, &mut worker.out) {
                    Ok(()) => MechanismResponse::Output(worker.out.clone()),
                    Err(e) => {
                        // The call drew no noise and released no output:
                        // refund the debit so a malformed workload does
                        // not burn budget.
                        let refunded = inner.ledger.release(cost);
                        debug_assert!(refunded.is_ok());
                        MechanismResponse::Rejected(RejectReason::Invalid(e))
                    }
                }
            }
            RequestBody::OpenSession { session, svt } => {
                if inner.sessions.contains_key(session) {
                    return MechanismResponse::Rejected(RejectReason::SessionExists);
                }
                let cost = svt.epsilon();
                if let Err(e) = inner.ledger.try_debit(cost) {
                    return MechanismResponse::Rejected(budget_reject(e));
                }
                inner.seq += 1;
                let rng = derive_fast_stream(tenant.seed, inner.seq);
                inner
                    .sessions
                    .insert(*session, SvtSession::open(*svt, rng, now));
                inner.idle.insert(now, *session);
                MechanismResponse::SessionOpened {
                    session: *session,
                    cost,
                }
            }
            RequestBody::Feed { session, queries } => {
                let inner = &mut *inner;
                let Some(open) = inner.sessions.get_mut(session) else {
                    return MechanismResponse::Rejected(RejectReason::UnknownSession);
                };
                // Re-key the index before `feed` overwrites the session's
                // last-touch tick.
                inner.idle.remove(&open.last_used());
                inner.idle.insert(now, *session);
                let mut decisions = Vec::new();
                open.feed(queries, now, &mut decisions);
                MechanismResponse::Decisions(decisions)
            }
            RequestBody::CloseSession { session } => {
                let Some(open) = inner.sessions.remove(session) else {
                    return MechanismResponse::Rejected(RejectReason::UnknownSession);
                };
                inner.idle.remove(&open.last_used());
                let released = release_session(&inner.ledger, &open);
                MechanismResponse::SessionClosed {
                    session: *session,
                    released,
                }
            }
        }
    }

    /// Closes sessions idle past the horizon, crediting their unspent
    /// share. The index front is the stalest session, so eviction pops
    /// until the front is within the horizon; at most one session newly
    /// expires per request (see the module docs). Removal happens under
    /// the tenant lock the caller already holds, so a session can never be
    /// released twice (eviction and explicit close race on the same map
    /// entry).
    fn evict_idle(&self, inner: &mut TenantInner, now: u64) {
        while let Some(stalest) = inner.idle.first_entry() {
            if now.saturating_sub(*stalest.key()) <= self.max_idle {
                break;
            }
            let id = stalest.remove();
            if let Some(open) = inner.sessions.remove(&id) {
                release_session(&inner.ledger, &open);
                inner.evicted += 1;
            }
        }
    }
}

/// Returns a closed/evicted session's unspent share to the ledger,
/// reporting what was released.
fn release_session(ledger: &BudgetLedger, session: &SvtSession) -> f64 {
    let unspent = session.unspent();
    if unspent > 0.0 {
        // The session's full ε was debited at open, so the credit always
        // fits; a failure here would be an accounting bug.
        let released = ledger.release(unspent);
        debug_assert!(released.is_ok());
    }
    unspent
}

fn budget_reject(e: MechanismError) -> RejectReason {
    match e {
        MechanismError::BudgetExhausted { .. } => RejectReason::Budget(e),
        other => RejectReason::Invalid(other),
    }
}

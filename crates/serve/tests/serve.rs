//! Serving-layer invariants: the ISSUE's acceptance criteria live here.
//!
//! * concurrent calls can never jointly oversubscribe a tenant's ε
//!   (eight threads racing `QueryServer::handle` on one tenant, with an
//!   exact-sum assertion on dyadic costs);
//! * an evicted session's unspent budget is released exactly once;
//! * per-tenant responses are independent of how requests from different
//!   tenants interleave (the sequential reference check);
//! * the serve-bench digest is bit-identical for 1 vs 4 worker threads,
//!   and pinned to golden values at the CLI default seed;
//! * idle eviction through the tick index evicts the same sessions, in
//!   the same order, as a reference scan of the whole session table.

use free_gap_core::noisy_max::NoisyTopKWithGap;
use free_gap_core::sparse_vector::SparseVectorWithGap;
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_noise::rng::fast_rng_from_seed;
use free_gap_serve::server::RejectReason;
use free_gap_serve::{
    BudgetLedger, MechanismRequest, MechanismResponse, QueryServer, RequestBody, ServeBenchConfig,
    WorkerScratch,
};
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashMap;

/// A one-shot call costing exactly `epsilon`: Noisy-Top-K-with-Gap at
/// k = 1 debits its ε and nothing else.
fn top1_call(epsilon: f64) -> MechanismRequest {
    MechanismRequest {
        tenant: 0,
        body: RequestBody::Call {
            mechanism: NoisyTopKWithGap::new(1, epsilon, true).unwrap().into(),
            queries: vec![4.0, 3.0, 2.0, 1.0],
        },
    }
}

/// Eight threads race `QueryServer::handle` calls on one tenant, each
/// thread at one cost per call, and count the ε of the calls that were
/// granted. Every other response must be a budget rejection.
fn race_calls(server: &QueryServer, costs: &[f64], calls: usize) -> Vec<f64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cost = costs[t % costs.len()];
                scope.spawn(move || {
                    let req = top1_call(cost);
                    let mut scratch = WorkerScratch::new();
                    let mut granted = Vec::new();
                    for _ in 0..calls {
                        match server.handle(&req, &mut scratch) {
                            MechanismResponse::Output(_) => granted.push(cost),
                            other => assert!(other.is_budget_rejected(), "{other:?}"),
                        }
                    }
                    granted
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// N threads race calls of dyadic cost (exact in binary, so sums are
/// order-independent) through the server: the tenant's spent total must
/// equal the exact sum of the granted calls, and never exceed ε.
#[test]
fn concurrent_debits_never_oversubscribe_epsilon() {
    let total = 10.0;
    let server = QueryServer::new(3);
    server.register_tenant(0, total).unwrap();
    // Dyadic per-thread costs: any interleaving sums exactly.
    let granted = race_calls(&server, &[0.25, 0.5, 0.125], 200);
    let granted_sum: f64 = granted.iter().sum();
    let spent = server.spent(0).unwrap();
    // Exact equality: every quantity is a small dyadic rational.
    assert_eq!(spent, granted_sum);
    assert!(spent <= total);
    // The race must have actually filled the budget: every thread alone
    // requests 200 × cost ≥ 25 > ε, so less than ε spent would mean
    // debits were lost. The smallest cost always fits until < 0.125
    // remains, and all costs divide evenly into 10.
    assert_eq!(spent, total);
    assert!(server
        .handle(&top1_call(0.125), &mut WorkerScratch::new())
        .is_budget_rejected());
}

/// Same race with uniform costs: the grant count is exactly ε / cost.
#[test]
fn concurrent_debit_grant_count_is_exact() {
    let server = QueryServer::new(4);
    server.register_tenant(0, 10.0).unwrap();
    let granted = race_calls(&server, &[0.25], 100);
    assert_eq!(granted.len(), 40); // 10 / 0.25, no more, no less
    assert_eq!(server.spent(0), Some(10.0));
}

fn tick(server: &QueryServer, tenant: u64, scratch: &mut WorkerScratch) -> MechanismResponse {
    // An unknown-session feed advances the tenant's logical clock (and so
    // drives idle eviction) without touching the ledger.
    server.handle(
        &MechanismRequest {
            tenant,
            body: RequestBody::Feed {
                session: u64::MAX,
                queries: vec![1.0],
            },
        },
        scratch,
    )
}

#[test]
fn evicted_session_budget_is_released_exactly_once() {
    let server = QueryServer::new(11).with_max_idle(2);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(4, 0.5, 10.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    let open = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::OpenSession { session: 7, svt },
        },
        &mut scratch,
    );
    assert_eq!(
        open,
        MechanismResponse::SessionOpened {
            session: 7,
            cost: svt.epsilon()
        }
    );
    assert_eq!(server.open_sessions(0), Some(1));
    let after_open = server.remaining(0).unwrap();
    assert!((after_open - (10.0 - svt.epsilon())).abs() < 1e-12);
    // Tick the clock past the idle horizon without touching the session.
    for _ in 0..4 {
        assert!(tick(&server, 0, &mut scratch).is_rejected());
    }
    assert_eq!(server.evictions(), 1);
    assert_eq!(server.open_sessions(0), Some(0));
    // No query was answered, so the whole ε₂ share comes back; only the
    // threshold share ε₁ stays spent.
    let after_evict = server.remaining(0).unwrap();
    assert!((after_evict - (10.0 - svt.epsilon1())).abs() < 1e-12);
    // Closing the already-evicted session must not release again.
    let close = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::CloseSession { session: 7 },
        },
        &mut scratch,
    );
    assert_eq!(
        close,
        MechanismResponse::Rejected(RejectReason::UnknownSession)
    );
    assert_eq!(server.remaining(0), Some(after_evict));
    assert_eq!(server.evictions(), 1);
}

#[test]
fn explicit_close_releases_the_unanswered_share() {
    let server = QueryServer::new(11);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(4, 0.5, 10.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::OpenSession { session: 1, svt },
        },
        &mut scratch,
    );
    // One far-above query is answered almost surely: 1 of k = 4 answers.
    let feed = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::Feed {
                session: 1,
                queries: vec![1000.0],
            },
        },
        &mut scratch,
    );
    let MechanismResponse::Decisions(decisions) = feed else {
        panic!("expected decisions, got {feed:?}");
    };
    let answered = decisions.iter().filter(|d| d.is_some()).count();
    let close = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::CloseSession { session: 1 },
        },
        &mut scratch,
    );
    let expect_released = svt.epsilon2() * (4 - answered) as f64 / 4.0;
    let MechanismResponse::SessionClosed { released, .. } = close else {
        panic!("expected close, got {close:?}");
    };
    assert!((released - expect_released).abs() < 1e-12);
    let spent = server.spent(0).unwrap();
    assert!((spent - (svt.epsilon() - expect_released)).abs() < 1e-12);
}

/// Per-tenant responses must not depend on how requests from *different*
/// tenants interleave: serving tenant 0's script before tenant 1's, or
/// alternating them request by request, yields bit-identical responses —
/// the sequential reference behind the derived-sub-stream design.
#[test]
fn tenant_responses_are_independent_of_cross_tenant_interleaving() {
    let mech = NoisyTopKWithGap::new(3, 0.7, true).unwrap();
    let queries: Vec<f64> = (0..16).map(|j| 100.0 - 3.0 * j as f64).collect();
    let mut script: Vec<MechanismRequest> = Vec::new();
    for t in 0..2u64 {
        for _ in 0..6 {
            script.push(MechanismRequest {
                tenant: t,
                body: RequestBody::Call {
                    mechanism: mech.into(),
                    queries: queries.clone(),
                },
            });
        }
    }
    let serve = |order: Vec<usize>| -> Vec<(u64, MechanismResponse)> {
        let server = QueryServer::new(42);
        server.register_tenant(0, 100.0).unwrap();
        server.register_tenant(1, 100.0).unwrap();
        let mut scratch = WorkerScratch::new();
        order
            .into_iter()
            .map(|idx| {
                let req = &script[idx];
                (req.tenant, server.handle(req, &mut scratch))
            })
            .collect()
    };
    // Sequential: all of tenant 0, then all of tenant 1.
    let sequential = serve((0..12).collect());
    // Interleaved: 0, 6, 1, 7, 2, 8, ...
    let interleaved = serve((0..6).flat_map(|i| [i, i + 6]).collect());
    for t in 0..2u64 {
        let a: Vec<_> = sequential.iter().filter(|(rt, _)| *rt == t).collect();
        let b: Vec<_> = interleaved.iter().filter(|(rt, _)| *rt == t).collect();
        assert_eq!(a, b, "tenant {t} responses diverged under interleaving");
    }
}

#[test]
fn budget_rejections_are_typed_and_leave_state_unchanged() {
    let server = QueryServer::new(9);
    server.register_tenant(0, 1.0).unwrap();
    let mech = NoisyTopKWithGap::new(3, 0.7, true).unwrap();
    let queries: Vec<f64> = (0..8).map(|j| 50.0 - j as f64).collect();
    let call = MechanismRequest {
        tenant: 0,
        body: RequestBody::Call {
            mechanism: mech.into(),
            queries,
        },
    };
    let mut scratch = WorkerScratch::new();
    assert!(matches!(
        server.handle(&call, &mut scratch),
        MechanismResponse::Output(_)
    ));
    // Second call needs 0.7 of the remaining 0.3: typed budget rejection.
    let rejected = server.handle(&call, &mut scratch);
    assert!(rejected.is_budget_rejected());
    let MechanismResponse::Rejected(RejectReason::Budget(
        free_gap_core::MechanismError::BudgetExhausted {
            requested,
            remaining,
        },
    )) = rejected
    else {
        panic!("expected typed budget rejection, got {rejected:?}");
    };
    assert!((requested - 0.7).abs() < 1e-12);
    assert!((remaining - 0.3).abs() < 1e-12);
    // The failed request debited nothing.
    assert!((server.remaining(0).unwrap() - 0.3).abs() < 1e-12);
    // Unknown tenants are their own rejection.
    let stray = MechanismRequest {
        tenant: 99,
        body: RequestBody::CloseSession { session: 0 },
    };
    assert_eq!(
        server.handle(&stray, &mut scratch),
        MechanismResponse::Rejected(RejectReason::UnknownTenant)
    );
}

/// Regression: an exhausted tenant used to keep serving tiny-ε calls,
/// because the accountant clamped `spent` back to the total after each
/// debit that fit in the 1e-12 relative slack.
#[test]
fn exhausted_tenant_rejects_tiny_epsilon_calls() {
    let total = 1.0;
    let eps = 5e-13;
    let server = QueryServer::new(13);
    server.register_tenant(0, total).unwrap();
    let call = |epsilon: f64| MechanismRequest {
        tenant: 0,
        body: RequestBody::Call {
            mechanism: StaircaseMechanism::new(epsilon).unwrap().into(),
            queries: vec![1.0, 2.0],
        },
    };
    let mut scratch = WorkerScratch::new();
    assert!(matches!(
        server.handle(&call(total), &mut scratch),
        MechanismResponse::Output(_)
    ));
    let tiny = call(eps);
    let served = (0..10_000)
        .filter(|_| !server.handle(&tiny, &mut scratch).is_rejected())
        .count();
    let bound = (1e-12 * total / eps).floor() as usize + 1;
    assert!(
        served <= bound,
        "{served} tiny calls served after exhaustion"
    );
    let spent = server.spent(0).unwrap();
    assert!(spent <= total * (1.0 + 1e-12), "spent {spent}");
}

/// The acceptance pin: a fixed-seed serve-bench run is bit-reproducible
/// across 1 vs 4 worker threads — same digest, same outcome counts — and
/// actually exercises rejections and evictions.
#[test]
fn serve_bench_is_bit_reproducible_across_worker_counts() {
    let mut config = ServeBenchConfig::quick(20190412);
    config.tenants = 4;
    config.requests_per_tenant = 150;
    config.epsilon_per_tenant = 0.45 * 150.0;
    let mut one = config;
    one.workers = 1;
    let mut four = config;
    four.workers = 4;
    let a = free_gap_serve::bench::run(&one).unwrap();
    let b = free_gap_serve::bench::run(&four).unwrap();
    assert_eq!(a.digest, b.digest, "digest diverged across worker counts");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.budget_rejected, b.budget_rejected);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.completed, a.planned);
    assert!(!a.truncated);
    // The script is sized to overrun the budget and leak sessions.
    assert!(a.budget_rejected > 0, "no budget rejection exercised");
    assert!(a.evictions > 0, "no eviction exercised");
    assert!(a.rejected >= a.budget_rejected);
    // Latency quantiles are ordered and populated.
    assert!(a.p50_us > 0.0);
    assert!(a.p50_us <= a.p95_us && a.p95_us <= a.p99_us);
    assert!(a.requests_per_sec > 0.0);
}

/// Different seeds must produce different digests (the digest actually
/// depends on the noise, not just the script shape).
#[test]
fn serve_bench_digest_depends_on_seed() {
    let mut config = ServeBenchConfig::quick(1);
    config.tenants = 2;
    config.requests_per_tenant = 40;
    config.epsilon_per_tenant = 40.0;
    let a = free_gap_serve::bench::run(&config).unwrap();
    config.seed = 2;
    let b = free_gap_serve::bench::run(&config).unwrap();
    assert_ne!(a.digest, b.digest);
}

/// Golden digest of `repro serve-bench --quick` at the CLI's default
/// seed. The board evicts at `max_idle = 32`, so the pin also covers the
/// eviction order.
#[test]
fn serve_bench_quick_digests_are_pinned() {
    let config = ServeBenchConfig::quick(20190412);
    let report = free_gap_serve::bench::run(&config).unwrap();
    assert!(report.evictions > 0, "the board evicted nothing");
    assert_eq!(report.digest, 0xac44_ad34_f3fc_feed);
}

fn send(server: &QueryServer, scratch: &mut WorkerScratch, body: RequestBody) -> MechanismResponse {
    server.handle(&MechanismRequest { tenant: 0, body }, scratch)
}

fn feed(session: u64, queries: &[f64]) -> RequestBody {
    RequestBody::Feed {
        session,
        queries: queries.to_vec(),
    }
}

/// `max_idle = 0`: a session opened at tick t is evicted before the
/// request at t + 1 is served, so that feed finds no session and the
/// unanswered ε₂ share is already back. Closing the evicted id afterwards
/// is rejected and releases nothing.
#[test]
fn zero_max_idle_evicts_on_the_next_tick() {
    let server = QueryServer::new(5).with_max_idle(0);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(3, 0.6, 0.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    let opened = send(
        &server,
        &mut scratch,
        RequestBody::OpenSession { session: 1, svt },
    );
    assert!(matches!(opened, MechanismResponse::SessionOpened { .. }));
    assert_eq!(server.open_sessions(0), Some(1));
    assert_eq!(
        send(&server, &mut scratch, feed(1, &[1e6])),
        MechanismResponse::Rejected(RejectReason::UnknownSession)
    );
    assert_eq!(server.evictions(), 1);
    assert_eq!(server.open_sessions(0), Some(0));
    let expect = BudgetLedger::new(10.0).unwrap();
    expect.try_debit(svt.epsilon()).unwrap();
    expect.release(svt.epsilon2() * 3.0 / 3.0).unwrap();
    let spent = server.spent(0).unwrap();
    assert_eq!(spent.to_bits(), expect.spent().to_bits());
    assert_eq!(
        send(
            &server,
            &mut scratch,
            RequestBody::CloseSession { session: 1 }
        ),
        MechanismResponse::Rejected(RejectReason::UnknownSession)
    );
    assert_eq!(server.spent(0).unwrap().to_bits(), spent.to_bits());
    assert_eq!(server.evictions(), 1);
}

/// `max_idle = u64::MAX`: no session ever expires, however long it sits.
#[test]
fn max_u64_idle_never_evicts() {
    let server = QueryServer::new(5).with_max_idle(u64::MAX);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(2, 0.5, 0.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    for session in 0..4 {
        let opened = send(
            &server,
            &mut scratch,
            RequestBody::OpenSession { session, svt },
        );
        assert!(matches!(opened, MechanismResponse::SessionOpened { .. }));
    }
    for _ in 0..500 {
        assert!(tick(&server, 0, &mut scratch).is_rejected());
    }
    assert_eq!(server.evictions(), 0);
    assert_eq!(server.open_sessions(0), Some(4));
    for session in 0..4 {
        let fed = send(&server, &mut scratch, feed(session, &[-1e6]));
        assert_eq!(fed, MechanismResponse::Decisions(vec![None]));
    }
}

/// Re-opening an id whose session was evicted starts a fresh run: its
/// answer count is zero again, so closing it returns the whole ε₂ share.
#[test]
fn reopening_an_evicted_id_gives_a_fresh_session() {
    let server = QueryServer::new(5).with_max_idle(2);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(2, 0.5, 0.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    send(
        &server,
        &mut scratch,
        RequestBody::OpenSession { session: 7, svt },
    );
    let MechanismResponse::Decisions(decisions) = send(&server, &mut scratch, feed(7, &[1e6]))
    else {
        panic!("feed of an open session was rejected");
    };
    assert!(decisions[0].is_some(), "a far-above query went unanswered");
    for _ in 0..3 {
        tick(&server, 0, &mut scratch);
    }
    assert_eq!(server.evictions(), 1);
    assert_eq!(
        send(
            &server,
            &mut scratch,
            RequestBody::OpenSession { session: 7, svt }
        ),
        MechanismResponse::SessionOpened {
            session: 7,
            cost: svt.epsilon()
        }
    );
    assert_eq!(
        send(
            &server,
            &mut scratch,
            RequestBody::CloseSession { session: 7 }
        ),
        MechanismResponse::SessionClosed {
            session: 7,
            released: svt.epsilon2()
        }
    );
}

/// A feed touches the session even after the `k`-th answer halted it, so
/// a halted session that keeps being fed is never evicted.
#[test]
fn feeding_a_halted_session_keeps_it_alive() {
    let server = QueryServer::new(5).with_max_idle(2);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(1, 0.5, 0.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    send(
        &server,
        &mut scratch,
        RequestBody::OpenSession { session: 3, svt },
    );
    let MechanismResponse::Decisions(decisions) = send(&server, &mut scratch, feed(3, &[1e6]))
    else {
        panic!("feed of an open session was rejected");
    };
    assert!(decisions[0].is_some(), "a far-above query went unanswered");
    // Each feed lands `max_idle` ticks after the previous one.
    for _ in 0..10 {
        tick(&server, 0, &mut scratch);
        let fed = send(&server, &mut scratch, feed(3, &[1e6]));
        assert_eq!(fed, MechanismResponse::Decisions(Vec::new()));
    }
    assert_eq!(server.evictions(), 0);
    assert_eq!(server.open_sessions(0), Some(1));
    assert_eq!(
        send(
            &server,
            &mut scratch,
            RequestBody::CloseSession { session: 3 }
        ),
        MechanismResponse::SessionClosed {
            session: 3,
            released: 0.0
        }
    );
}

/// One open session of the reference model.
struct ModelSession {
    svt: SparseVectorWithGap,
    answered: usize,
    last_used: u64,
}

impl ModelSession {
    fn unspent(&self) -> f64 {
        let k = self.svt.k();
        self.svt.epsilon2() * k.saturating_sub(self.answered) as f64 / k as f64
    }
}

/// What the reference model expects a request to answer.
#[derive(Debug, PartialEq)]
enum Expected {
    Output,
    Opened,
    Decisions,
    /// Closed, releasing this many ε (as bits).
    Closed(u64),
    UnknownSession,
    SessionExists,
    Budget,
}

fn observed(response: &MechanismResponse) -> Expected {
    match response {
        MechanismResponse::Output(_) => Expected::Output,
        MechanismResponse::SessionOpened { .. } => Expected::Opened,
        MechanismResponse::Decisions(_) => Expected::Decisions,
        MechanismResponse::SessionClosed { released, .. } => Expected::Closed(released.to_bits()),
        MechanismResponse::Rejected(RejectReason::UnknownSession) => Expected::UnknownSession,
        MechanismResponse::Rejected(RejectReason::SessionExists) => Expected::SessionExists,
        MechanismResponse::Rejected(RejectReason::Budget(_)) => Expected::Budget,
        other => panic!("unexpected response {other:?}"),
    }
}

/// One tenant served the way the server did before its tick index: a
/// map from session id to last touch, and before every request a scan of
/// the whole map for `now - last_used > max_idle`, evicted in id order.
/// It keeps its own ledger, so ε flows compare to the bit.
struct ScanModel {
    max_idle: u64,
    clock: u64,
    ledger: BudgetLedger,
    sessions: HashMap<u64, ModelSession>,
}

impl ScanModel {
    fn new(total: f64, max_idle: u64) -> Self {
        Self {
            max_idle,
            clock: 0,
            ledger: BudgetLedger::new(total).unwrap(),
            sessions: HashMap::new(),
        }
    }

    fn release(&self, session: &ModelSession) -> f64 {
        let unspent = session.unspent();
        if unspent > 0.0 {
            self.ledger.release(unspent).unwrap();
        }
        unspent
    }

    /// Advances the clock and evicts idle sessions; returns how many.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        let now = self.clock;
        let mut expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.last_used) > self.max_idle)
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable();
        for id in &expired {
            let session = self.sessions.remove(id).unwrap();
            self.release(&session);
        }
        expired.len() as u64
    }

    /// Serves `body` after [`tick`](Self::tick). Decisions are noise, so
    /// a feed takes its answer count from the server's `response`.
    fn serve(&mut self, body: &RequestBody, response: &MechanismResponse) -> Expected {
        let now = self.clock;
        match body {
            RequestBody::Call { mechanism, .. } => {
                match self
                    .ledger
                    .try_debit(free_gap_core::Mechanism::cost(mechanism))
                {
                    Ok(()) => Expected::Output,
                    Err(_) => Expected::Budget,
                }
            }
            RequestBody::OpenSession { session, svt } => {
                if self.sessions.contains_key(session) {
                    return Expected::SessionExists;
                }
                if self.ledger.try_debit(svt.epsilon()).is_err() {
                    return Expected::Budget;
                }
                let open = ModelSession {
                    svt: *svt,
                    answered: 0,
                    last_used: now,
                };
                self.sessions.insert(*session, open);
                Expected::Opened
            }
            RequestBody::Feed { session, .. } => {
                let Some(open) = self.sessions.get_mut(session) else {
                    return Expected::UnknownSession;
                };
                open.last_used = now;
                if let MechanismResponse::Decisions(decisions) = response {
                    open.answered += decisions.iter().filter(|d| d.is_some()).count();
                }
                Expected::Decisions
            }
            RequestBody::CloseSession { session } => match self.sessions.remove(session) {
                Some(open) => Expected::Closed(self.release(&open).to_bits()),
                None => Expected::UnknownSession,
            },
        }
    }
}

/// A random request over session ids `0..8`: opens, feeds (far above,
/// far below and near the threshold), closes, feeds of an id that is
/// never opened, and one-shot calls.
fn random_request(rng: &mut impl Rng) -> RequestBody {
    let session = rng.gen_range(0..8u64);
    match rng.gen_range(0..20u32) {
        0..=4 => {
            let epsilon = if rng.gen_bool(0.5) { 0.5 } else { 1.0 };
            let svt = SparseVectorWithGap::new(rng.gen_range(1..4), epsilon, 0.0, true).unwrap();
            RequestBody::OpenSession { session, svt }
        }
        5..=11 => {
            let queries = (0..rng.gen_range(0..4))
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => 1e6,
                    1 => -1e6,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect();
            RequestBody::Feed { session, queries }
        }
        12..=14 => RequestBody::CloseSession { session },
        15..=16 => feed(u64::MAX, &[0.0]),
        _ => RequestBody::Call {
            mechanism: NoisyTopKWithGap::new(2, 0.25, true).unwrap().into(),
            queries: vec![3.0, 1.0, 2.0, 0.5],
        },
    }
}

const MAX_IDLES: [u64; 6] = [0, 1, 2, 32, 64, u64::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tick index evicts exactly what the whole-table scan evicted, in
    /// the same order: after every request the open-session count, the
    /// eviction count, the response kind (including unknown-session
    /// rejections and released ε) and the bits of the tenant's spent ε
    /// all match the reference model.
    #[test]
    fn tick_index_matches_the_reference_scan(
        script_seed in 0u64..1_000_000,
        len in 1usize..201,
        idle in 0usize..MAX_IDLES.len(),
    ) {
        let max_idle = MAX_IDLES[idle];
        let server = QueryServer::new(script_seed).with_max_idle(max_idle);
        server.register_tenant(0, 6.0).unwrap();
        let mut model = ScanModel::new(6.0, max_idle);
        let mut rng = fast_rng_from_seed(script_seed);
        let mut scratch = WorkerScratch::new();
        let mut evictions = 0;
        for step in 0..len {
            let body = random_request(&mut rng);
            let response = send(&server, &mut scratch, body.clone());
            let evicted = model.tick();
            let expected = model.serve(&body, &response);
            let server_state = (
                observed(&response),
                server.evictions() - evictions,
                server.open_sessions(0),
                server.spent(0).unwrap().to_bits(),
            );
            let model_state = (
                expected,
                evicted,
                Some(model.sessions.len()),
                model.ledger.spent().to_bits(),
            );
            prop_assert!(
                server_state == model_state,
                "step {step} ({body:?}): server {server_state:?}, model {model_state:?}"
            );
            evictions = server.evictions();
        }
    }
}

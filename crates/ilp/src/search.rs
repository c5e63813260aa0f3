//! The branch-and-bound node loop: a worker pool over a shared best-first
//! queue.
//!
//! [`branch::solve`](crate::branch::solve) prepares the search and calls
//! [`search`] for every [`BranchConfig::jobs`](crate::BranchConfig::jobs)
//! value. The calling thread is worker 0 and `jobs − 1` scoped threads join
//! it, so the default `jobs = 1` spawns no thread.
//!
//! * **Open queue.** One `Mutex<BinaryHeap>` ordered best-bound-first, with
//!   a deeper-first tie break and the NaN-safe [`f64::total_cmp`]. Workers
//!   pop the globally best open node; when the heap runs dry but peers are
//!   still processing (and may push children), a worker parks on a condvar
//!   rather than exiting. The search is over when the heap is empty *and*
//!   no worker is mid-node. The queue also numbers the nodes it hands out,
//!   which the node limit and the heuristic cadence read.
//! * **Shared incumbent.** The incumbent objective lives in an `AtomicU64`
//!   as order-preserving bits, so every worker prunes against the freshest
//!   bound with one relaxed load — no lock on the hot path. Improvements
//!   CAS the objective first (losers retry or abandon), then store the
//!   assignment and a timeline event under a mutex. Validated warm starts
//!   enter through the same rule before the workers start.
//! * **Node state.** Each node carries an `Arc` parent-pointer chain of
//!   branching decisions, so any worker can materialize any node's bounds
//!   without touching shared mutable state. Per-worker `lb`/`ub` scratch
//!   buffers keep simplex state thread-private, while parent bases travel
//!   with the nodes (`Arc<Basis>`) so any worker can dual-warm-restart.
//! * **Counters.** Each worker counts its own work; the counts are summed
//!   when the workers join.
//! * **Cancellation.** Workers share the solve's [`Budget`]: deadlines and
//!   [`Budget::cancel`] are observed before every node and inside every
//!   simplex pivot loop, so one pipeline-level budget bounds the search.
//!
//! Determinism: with one worker the search is a deterministic function of
//! the model and config. With more, the *proved optimum* is the same
//! (pruning only ever discards nodes that provably cannot beat the
//! incumbent), but node visit order, node/iteration counts, and which of
//! several optimal assignments is returned depend on thread timing.
//!
//! [`Budget`]: gomil_budget::Budget
//! [`Budget::cancel`]: gomil_budget::Budget::cancel

use crate::branch::{
    checked_bound, expand, solve_lp_reduced, BoundDelta, Incumbent, PcTables, SearchCounters,
    SearchCtx, SearchOutcome,
};
use crate::model::VarKind;
use crate::propagate::propagate_bounds;
use crate::simplex::{resolve_lp, Basis, LpError, LpOutcome, LpResult, FEAS_TOL};
use crate::solution::{IncumbentEvent, IncumbentSource, SolveError};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Maps an f64 to bits whose unsigned order matches the float order
/// (negative floats reversed, sign bit flipped on the rest). Lets an
/// `AtomicU64` hold a minimize-space objective that only ever decreases.
fn key_of(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn val_of(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// One link in a node's parent-pointer chain of branching decisions.
struct PathNode {
    parent: Option<Arc<PathNode>>,
    delta: BoundDelta,
}

/// Applies every delta on the chain, innermost-first (tighten-only, so the
/// order does not matter).
fn apply_path(mut path: Option<&Arc<PathNode>>, lb: &mut [f64], ub: &mut [f64]) {
    while let Some(p) = path {
        p.delta.tighten(lb, ub);
        path = p.parent.as_ref();
    }
}

/// An open node in the shared queue.
struct Node {
    bound: f64,
    depth: u32,
    path: Option<Arc<PathNode>>,
    /// The branching that created this node, for pseudocost updates:
    /// `(column, went_up, parent LP objective, fractional distance)`.
    branch: Option<(usize, bool, f64, f64)>,
    /// The parent's optimal basis, shared by both children; travels with
    /// the node so whichever worker pops it can dual-warm-restart instead
    /// of re-solving from scratch.
    basis: Option<Arc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first, with a
        // preference for deeper nodes (diving) on ties. `total_cmp` keeps
        // this a lawful total order even for NaN bounds (which
        // `checked_bound` rejects upstream anyway): NaN sorts after every
        // real bound instead of silently comparing "equal" to everything
        // and corrupting the heap invariant.
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.depth.cmp(&other.depth))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Why the whole pool must stop early.
enum Stop {
    /// Budget/node limit; carries the best open bound at the trigger.
    Limit(String, f64),
    /// Root relaxation unbounded with no incumbent.
    UnboundedRoot,
    /// Simplex breakdown somewhere; the solve fails as a whole.
    Numerical(String),
}

/// Queue state guarded by one mutex.
struct QueueState {
    heap: BinaryHeap<Node>,
    /// Nodes handed out so far; the node limit and the heuristic cadence
    /// read it.
    explored: u64,
    /// Workers currently processing a node (may still push children).
    active: usize,
    /// Workers parked on the condvar. Waking costs a system call, so the
    /// queue only notifies when someone waits: never with one worker.
    waiting: usize,
    stop: Option<Stop>,
}

/// Incumbent payload behind the atomic objective mirror.
struct IncSlot {
    best: Option<Incumbent>,
    timeline: Vec<IncumbentEvent>,
}

struct Shared<'c, 'm> {
    ctx: &'c SearchCtx<'m>,
    q: Mutex<QueueState>,
    cv: Condvar,
    /// Minimize-space incumbent objective as order-preserving bits;
    /// `key_of(f64::INFINITY)` while no incumbent exists. Only ever
    /// decreases (CAS), so a relaxed load is always a valid cutoff.
    inc_bits: AtomicU64,
    inc: Mutex<IncSlot>,
    pc: Mutex<PcTables>,
}

/// What processing one node produced.
enum NodeResult {
    Children(Node, Node),
    /// Pruned, infeasible, or recorded as an incumbent — no children.
    Exhausted,
    Stop(Stop),
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A node is pruned once `(incumbent − bound)/max(1,|incumbent|)` falls
/// below this.
const GAP_TOL: f64 = 1e-6;

/// The round-and-repair heuristic runs every this many nodes.
const HEURISTIC_PERIOD: u64 = 20;

impl<'c, 'm> Shared<'c, 'm> {
    /// A pool with only the root node open and no incumbent.
    fn new(ctx: &'c SearchCtx<'m>) -> Self {
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: ctx.root_bound,
            depth: 0,
            path: None,
            branch: None,
            // The root LP was already solved (and cut) in `prepare`: its
            // bound is the root's, and restarting from its basis makes the
            // first node a handful of dual pivots.
            basis: ctx.root_basis.clone(),
        });
        Shared {
            ctx,
            q: Mutex::new(QueueState {
                heap,
                explored: 0,
                active: 0,
                waiting: 0,
                stop: None,
            }),
            cv: Condvar::new(),
            inc_bits: AtomicU64::new(key_of(f64::INFINITY)),
            inc: Mutex::new(IncSlot {
                best: None,
                timeline: Vec::new(),
            }),
            pc: Mutex::new(PcTables::new(ctx.std.lp.num_structural)),
        }
    }

    /// The outcome of a pool whose workers have all joined.
    fn into_outcome(self, counters: SearchCounters) -> Result<SearchOutcome, SolveError> {
        let q = self.q.into_inner().unwrap_or_else(|p| p.into_inner());
        let slot = self.inc.into_inner().unwrap_or_else(|p| p.into_inner());
        let mut saw_unbounded_root = false;
        let (limit_hit, mut best_open_bound) = match q.stop {
            None => (None, f64::NEG_INFINITY),
            Some(Stop::Limit(msg, bound)) => (Some(msg), bound),
            Some(Stop::UnboundedRoot) => {
                saw_unbounded_root = true;
                (None, f64::NEG_INFINITY)
            }
            Some(Stop::Numerical(msg)) => return Err(SolveError::Numerical(msg)),
        };
        // The reported bound must cover everything still open when the pool
        // stopped: the stopped nodes and the remaining heap.
        if limit_hit.is_some() {
            if let Some(top) = q.heap.peek() {
                best_open_bound = best_open_bound.min(top.bound);
            }
        }
        Ok(SearchOutcome {
            incumbent: slot.best,
            timeline: slot.timeline,
            counters,
            limit_hit,
            best_open_bound,
            saw_unbounded_root,
        })
    }

    /// The current incumbent objective, if any.
    fn cutoff(&self) -> Option<f64> {
        let best = val_of(self.inc_bits.load(Ordering::Relaxed));
        (best != f64::INFINITY).then_some(best)
    }

    /// Whether a node with this bound cannot beat the incumbent, up to the
    /// relative gap tolerance [`GAP_TOL`].
    fn prunable(&self, bound: f64) -> bool {
        match self.cutoff() {
            Some(best) => bound >= best - GAP_TOL * best.abs().max(1.0),
            None => false,
        }
    }

    /// Offers a feasible assignment as the shared incumbent. The objective
    /// mirror is CAS'd first — losers (no strict improvement) return
    /// without touching the mutex — then the payload and timeline are
    /// updated under the lock, re-checking in case a better offer landed
    /// between the CAS and the lock.
    fn offer(&self, vals: Vec<f64>, source: IncumbentSource) {
        let obj = self.ctx.eval_obj(&vals);
        if obj.is_nan() {
            return;
        }
        let key = key_of(obj);
        let mut cur = self.inc_bits.load(Ordering::Relaxed);
        loop {
            if obj >= val_of(cur) - 1e-9 {
                return; // not a strict improvement
            }
            match self
                .inc_bits
                .compare_exchange_weak(cur, key, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let mut slot = lock(&self.inc);
        if slot.best.as_ref().is_none_or(|(_, b, _)| obj < b - 1e-9) {
            slot.timeline.push(IncumbentEvent {
                at: self.ctx.start.elapsed(),
                objective: obj,
                source,
            });
            slot.best = Some((vals, obj, source));
        }
    }

    /// Blocks until a node is available, the pool is told to stop, or the
    /// search is exhausted. Returns the node with its 1-based ordinal in
    /// the search; `None` means "this worker is done".
    fn acquire(&self, counters: &mut SearchCounters) -> Option<(Node, u64)> {
        let config = self.ctx.config;
        let mut q = lock(&self.q);
        loop {
            if q.stop.is_some() {
                return None;
            }
            if let Some(top_bound) = q.heap.peek().map(|n| n.bound) {
                // The top is the minimum bound: if it cannot beat the
                // incumbent, neither can anything below it. Discard the
                // whole heap in one sweep.
                if self.prunable(top_bound) {
                    counters.pruned += q.heap.len() as u64;
                    q.heap.clear();
                    continue;
                }
                let limit = match self.ctx.budget.check() {
                    Err(reason) => Some(reason.to_string()),
                    Ok(()) if q.explored >= config.node_limit => {
                        Some(format!("node limit {}", config.node_limit))
                    }
                    Ok(()) => None,
                };
                if let Some(msg) = limit {
                    q.stop = Some(Stop::Limit(msg, top_bound));
                    self.wake(&q);
                    return None;
                }
                let node = q.heap.pop().expect("peeked node vanished under lock");
                q.active += 1;
                q.explored += 1;
                counters.explored += 1;
                return Some((node, q.explored));
            }
            if q.active == 0 {
                // Nothing open, nobody producing: search exhausted.
                self.wake(&q);
                return None;
            }
            q.waiting += 1;
            q = self.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            q.waiting -= 1;
        }
    }

    /// Wakes the parked workers, if any, to re-examine the queue.
    fn wake(&self, q: &QueueState) {
        if q.waiting > 0 {
            self.cv.notify_all();
        }
    }

    /// Publishes the result of one processed node and updates termination
    /// bookkeeping.
    fn release(&self, result: NodeResult) {
        let mut q = lock(&self.q);
        q.active -= 1;
        match result {
            NodeResult::Children(a, b) => {
                q.heap.push(a);
                q.heap.push(b);
            }
            NodeResult::Exhausted => {}
            NodeResult::Stop(s) => match (&mut q.stop, s) {
                (None, s) => q.stop = Some(s),
                // A node still in flight when the pool stopped is open
                // too: the reported bound must cover it.
                (Some(Stop::Limit(_, bound)), Stop::Limit(_, b)) => *bound = bound.min(b),
                _ => {}
            },
        }
        // Wake sleepers for new work, a stop, or possible termination.
        self.wake(&q);
    }

    /// The per-node pipeline: materialize bounds, propagate, solve the LP
    /// relaxation, update pseudocosts, then prune, record an incumbent, or
    /// branch. `ordinal` is the node's place in the search (1-based).
    fn process(
        &self,
        node: &Node,
        ordinal: u64,
        lb_buf: &mut [f64],
        ub_buf: &mut [f64],
        counters: &mut SearchCounters,
    ) -> NodeResult {
        let ctx = self.ctx;
        let std = &ctx.std;
        let config = ctx.config;

        lb_buf.copy_from_slice(&std.lp.lb);
        ub_buf.copy_from_slice(&std.lp.ub);
        apply_path(node.path.as_ref(), lb_buf, ub_buf);
        if lb_buf
            .iter()
            .zip(ub_buf.iter())
            .any(|(l, u)| *l > u + FEAS_TOL)
        {
            counters.pruned += 1;
            return NodeResult::Exhausted; // branching made it empty
        }
        if !propagate_bounds(&std.lp, lb_buf, ub_buf, &std.col_is_int, 3) {
            counters.pruned += 1;
            return NodeResult::Exhausted; // propagation proved infeasibility
        }

        // Warm restart from the parent's basis when the node carries one,
        // falling back to the from-scratch two-phase primal on a miss.
        let mut res: Option<LpResult> = None;
        if config.reuse_basis {
            if let Some(basis) = node.basis.as_deref() {
                counters.warm_attempts += 1;
                match resolve_lp(&std.lp, lb_buf, ub_buf, basis, &ctx.lp_opts) {
                    Ok(Ok(r)) => {
                        counters.warm_hits += 1;
                        res = Some(r);
                    }
                    // Stale basis: count what the attempt spent, then fall
                    // back to the primal below.
                    Ok(Err(spent)) => counters.lp.absorb(&spent),
                    Err(e) => return lp_stop(e, node.bound, counters),
                }
            }
        }
        let res = match res {
            Some(r) => r,
            None => {
                match solve_lp_reduced(&std.lp, lb_buf, ub_buf, &ctx.lp_opts, config.reduce, None) {
                    Ok(r) => r,
                    Err(e) => return lp_stop(e, node.bound, counters),
                }
            }
        };
        counters.lp.absorb(&res.work);
        let child_basis = res.basis.map(Arc::new);
        let (x, lp_obj) = match res.outcome {
            LpOutcome::Infeasible => {
                counters.pruned += 1;
                return NodeResult::Exhausted;
            }
            LpOutcome::Unbounded => {
                if node.depth == 0 && self.cutoff().is_none() {
                    return NodeResult::Stop(Stop::UnboundedRoot);
                }
                counters.pruned += 1;
                return NodeResult::Exhausted;
            }
            LpOutcome::Optimal { x, obj } => match checked_bound(obj + ctx.obj_offset) {
                Ok(b) => (x, b),
                Err(e) => return NodeResult::Stop(Stop::Numerical(e.to_string())),
            },
        };

        // Pseudocost update from the branching that created this node.
        if let Some((col, up, parent_obj, dist)) = node.branch {
            lock(&self.pc).observe(col, up, parent_obj, dist, lp_obj);
        }

        if self.prunable(lp_obj) {
            counters.pruned += 1;
            return NodeResult::Exhausted;
        }

        let pick = lock(&self.pc).pick_branch(&x, &std.col_is_int);
        match pick {
            None => {
                // Integral LP optimum: offer as shared incumbent.
                let mut vals = expand(std, &x);
                for (i, v) in vals.iter_mut().enumerate() {
                    if ctx.model.vars[i].kind != VarKind::Continuous {
                        *v = v.round();
                    }
                }
                self.offer(vals, IncumbentSource::LpIntegral);
                NodeResult::Exhausted
            }
            Some((c, _)) => {
                // Heuristic: round and repair every `HEURISTIC_PERIOD`
                // nodes of the search (approximate under concurrency).
                if ordinal % HEURISTIC_PERIOD == 1 {
                    let (repaired, spent) = crate::heur::round_and_repair(
                        &std.lp,
                        lb_buf,
                        ub_buf,
                        &std.col_is_int,
                        &x,
                        &ctx.lp_opts,
                    );
                    counters.lp.absorb(&spent);
                    if let Some(vals) = repaired {
                        let full = expand(std, &vals);
                        if ctx.model.is_feasible(&full, FEAS_TOL * 10.0) {
                            self.offer(full, IncumbentSource::Heuristic);
                        }
                    }
                }
                counters.branched += 1;
                debug_assert!(
                    lp_obj.is_finite(),
                    "child node bound must be finite, got {lp_obj}"
                );
                let xi = x[c];
                let down = xi.floor();
                let up = xi.ceil();
                let depth = node.depth + 1;
                let child = |is_lower: bool, value: f64, dist: f64| Node {
                    bound: lp_obj,
                    depth,
                    path: Some(Arc::new(PathNode {
                        parent: node.path.clone(),
                        delta: BoundDelta {
                            col: c as u32,
                            is_lower,
                            value,
                        },
                    })),
                    branch: Some((c, is_lower, lp_obj, dist)),
                    basis: child_basis.clone(),
                };
                NodeResult::Children(child(false, down, xi - down), child(true, up, up - xi))
            }
        }
    }
}

/// Stops the pool on a node LP that could not finish: a budget
/// interruption (its partial work still counted) stops gracefully with the
/// incumbent found so far, a numerical breakdown fails the solve.
fn lp_stop(e: LpError, bound: f64, counters: &mut SearchCounters) -> NodeResult {
    match e {
        LpError::Budget { reason, work } => {
            counters.lp.absorb(&work);
            NodeResult::Stop(Stop::Limit(reason.to_string(), bound))
        }
        LpError::Numerical(msg) => NodeResult::Stop(Stop::Numerical(msg)),
    }
}

/// Stops the pool when its worker unwinds. A panicking worker never
/// releases its node, so it stays counted in `active`: without the stop,
/// the other workers would park forever and the scope could never join.
/// With it they drain, and the panic propagates to the caller.
struct StopOnUnwind<'s, 'c, 'm>(&'s Shared<'c, 'm>);

impl Drop for StopOnUnwind<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut q = lock(&self.0.q);
            q.stop = Some(Stop::Numerical("a search worker panicked".into()));
            self.0.cv.notify_all();
        }
    }
}

fn worker(shared: &Shared<'_, '_>) -> SearchCounters {
    let _stop_on_unwind = StopOnUnwind(shared);
    let ncols = shared.ctx.std.lp.num_cols;
    let mut lb_buf = vec![0.0; ncols];
    let mut ub_buf = vec![0.0; ncols];
    let mut counters = SearchCounters::default();
    while let Some((node, ordinal)) = shared.acquire(&mut counters) {
        #[cfg(test)]
        if shared.ctx.model.name() == tests::PANIC_PROBE {
            panic!("injected worker panic");
        }
        let result = shared.process(&node, ordinal, &mut lb_buf, &mut ub_buf, &mut counters);
        shared.release(result);
    }
    counters
}

/// Runs the search from the prepared context: offers the validated warm
/// `starts` as incumbents in order, then runs the pool — the calling
/// thread plus `jobs − 1` scoped threads — until the tree is exhausted or
/// a limit stops it.
pub(crate) fn search(
    ctx: &SearchCtx<'_>,
    starts: Vec<Vec<f64>>,
) -> Result<SearchOutcome, SolveError> {
    let shared = Shared::new(ctx);
    for vals in starts {
        shared.offer(vals, IncumbentSource::WarmStart);
    }
    let counters = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..ctx.config.jobs.max(1))
            .map(|_| s.spawn(|| worker(&shared)))
            .collect();
        let mut counters = worker(&shared);
        for h in helpers {
            match h.join() {
                Ok(c) => counters.absorb(&c),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        counters
    });
    shared.into_outcome(counters)
}

#[cfg(test)]
mod tests {
    use crate::model::Model;
    use crate::{BranchConfig, Cmp, LinExpr, Sense, SolveError};

    /// A model with this name makes every worker panic on the first node it
    /// takes; only [`a_worker_panic_unwinds_instead_of_hanging`] uses it.
    pub(super) const PANIC_PROBE: &str = "search-tests-panic-probe";

    fn knapsack() -> Model {
        let mut m = Model::new("knap");
        let items: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w = [2.0, 3.0, 4.0, 5.0, 7.0, 8.0];
        let v = [3.0, 4.0, 5.0, 6.0, 9.0, 10.0];
        let weight: LinExpr = items.iter().zip(w.iter()).map(|(&x, &wi)| wi * x).sum();
        let value: LinExpr = items.iter().zip(v.iter()).map(|(&x, &vi)| vi * x).sum();
        m.add_constraint("cap", weight, Cmp::Le, 11.0);
        m.set_objective(value, Sense::Maximize);
        m
    }

    #[test]
    fn every_stopped_node_bounds_the_reported_gap() {
        use super::{lock, NodeResult, Shared, Stop};
        let m = knapsack();
        let cfg = BranchConfig::default();
        let prep = crate::branch::prepare(&m, &cfg).unwrap();
        let shared = Shared::new(&prep.ctx);
        // Two workers hold nodes when the pool stops. The first stop
        // carries bound 5; the second worker's node, interrupted by the
        // same budget, has bound 3 and must not be dropped.
        {
            let mut q = lock(&shared.q);
            q.heap.clear();
            q.active = 2;
        }
        shared.release(NodeResult::Stop(Stop::Limit("deadline".into(), 5.0)));
        shared.release(NodeResult::Stop(Stop::Limit("deadline".into(), 3.0)));
        let out = shared
            .into_outcome(crate::branch::SearchCounters::default())
            .unwrap();
        assert_eq!(out.limit_hit.as_deref(), Some("deadline"));
        assert_eq!(out.best_open_bound, 3.0);
    }

    #[test]
    fn key_mapping_is_order_preserving() {
        use super::{key_of, val_of};
        let xs = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.75,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(key_of(w[0]) <= key_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &x in &xs {
            assert_eq!(val_of(key_of(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn open_node_order_is_total_even_with_nan_bounds() {
        use super::Node;
        use std::collections::BinaryHeap;
        let node = |bound: f64| Node {
            bound,
            depth: 0,
            path: None,
            branch: None,
            basis: None,
        };
        // Antisymmetry must hold where partial_cmp().unwrap_or(Equal) broke
        // it: NaN vs real compared Equal both ways before, now the order is
        // consistent and reversible.
        let (a, b) = (node(f64::NAN), node(1.0));
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Pop order stays best-first (smallest bound first) with NaN last.
        let mut heap = BinaryHeap::new();
        for bound in [f64::NAN, 1.0, f64::NEG_INFINITY, -3.0] {
            heap.push(node(bound));
        }
        let popped: Vec<f64> = std::iter::from_fn(|| heap.pop().map(|n| n.bound)).collect();
        assert_eq!(popped[0], f64::NEG_INFINITY);
        assert_eq!(popped[1], -3.0);
        assert_eq!(popped[2], 1.0);
        assert!(popped[3].is_nan());
    }

    #[test]
    fn parallel_matches_sequential_objective() {
        let one = knapsack().solve_with(&BranchConfig::default()).unwrap();
        assert!(one.is_optimal());
        assert!((one.objective() - 14.0).abs() < 1e-6, "{}", one.objective());
        assert_eq!(one.jobs(), 1);
        for jobs in [2, 4] {
            let m = knapsack();
            let cfg = BranchConfig {
                jobs,
                ..BranchConfig::default()
            };
            let s = m.solve_with(&cfg).unwrap();
            assert!(s.is_optimal(), "jobs={jobs}");
            assert!(
                (s.objective() - one.objective()).abs() < 1e-6,
                "jobs={jobs}: {} vs {} at one job",
                s.objective(),
                one.objective()
            );
            assert_eq!(s.jobs(), jobs);
            assert!(s.certificate().is_some());
        }
    }

    #[test]
    fn parallel_detects_infeasibility() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 1.0);
        m.add_constraint("c", 2.0 * x, Cmp::Eq, 1.0);
        let cfg = BranchConfig {
            jobs: 4,
            ..BranchConfig::default()
        };
        assert_eq!(m.solve_with(&cfg).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn parallel_detects_unbounded_root() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let cfg = BranchConfig {
            jobs: 2,
            ..BranchConfig::default()
        };
        assert_eq!(m.solve_with(&cfg).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn parallel_honours_dead_budget_with_warm_start() {
        use gomil_budget::Budget;
        use std::time::Duration;
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let cfg = BranchConfig {
            jobs: 4,
            budget: Budget::with_limit(Duration::ZERO),
            time_limit: None,
            initial: Some(vec![4.0]),
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert_eq!(s.status(), crate::SolveStatus::Feasible);
        assert_eq!(s.int_value(x), 4);
    }

    #[test]
    fn parallel_cancellation_stops_the_pool() {
        use gomil_budget::Budget;
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let budget = Budget::unlimited();
        budget.cancel();
        let cfg = BranchConfig {
            jobs: 8,
            budget,
            time_limit: None,
            ..BranchConfig::default()
        };
        match m.solve_with(&cfg).unwrap_err() {
            SolveError::Limit(msg) => assert!(msg.contains("cancelled"), "{msg}"),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn a_worker_panic_unwinds_instead_of_hanging() {
        use std::sync::mpsc;
        use std::time::Duration;
        let mut m = Model::new(PANIC_PROBE);
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let cfg = BranchConfig {
            jobs: 2,
            ..BranchConfig::default()
        };
        // The worker that takes the root panics while the other parks on
        // the empty queue. Solve on a spawned thread so that a hang fails
        // this test instead of blocking the run.
        let (tx, rx) = mpsc::channel();
        let solver = std::thread::spawn(move || {
            let unwound = std::panic::catch_unwind(|| m.solve_with(&cfg)).is_err();
            tx.send(unwound).ok();
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(unwound) => assert!(unwound, "the worker panic must reach the caller"),
            Err(_) => panic!("the pool hung after a worker panic"),
        }
        solver.join().expect("the solve's panic was caught");
    }
}

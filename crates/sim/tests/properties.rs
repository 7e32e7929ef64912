//! Property tests over the simulation kernel's determinism contracts.
//!
//! These are the invariants the scenario-suite runner leans on: the event
//! queue is a total order (time, then FIFO) no matter how schedules and
//! cancellations interleave, and `SeedTree` streams depend only on their
//! *names*, never on the order anything else was derived — which is what
//! makes parallel suite execution bit-identical to serial execution.

use proptest::prelude::*;
use rand::Rng;

use pictor_sim::{EventQueue, SeedTree, SimTime};

/// One step of an arbitrary queue workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + offset`.
    Schedule(u64),
    /// Cancel the pending event at this index (mod pending length).
    Cancel(usize),
    /// Pop the earliest live event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 0u64..1_000, 0usize..64).prop_map(|(kind, offset, idx)| match kind {
        0..=2 => Op::Schedule(offset),
        3 => Op::Cancel(idx),
        _ => Op::Pop,
    })
}

proptest! {
    /// Under arbitrary schedule/cancel/pop interleavings the queue pops in
    /// nondecreasing time with FIFO tie-breaking, never yields a cancelled
    /// event, and conserves events (scheduled = popped + cancelled + left).
    #[test]
    fn event_queue_orders_any_interleaving(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Pending (seq, time) pairs still cancellable, with their ids.
        let mut pending: Vec<(pictor_sim::EventId, u64, SimTime)> = Vec::new();
        let mut next_payload = 0u64;
        let mut scheduled = 0u64;
        let mut cancelled = 0u64;
        let mut popped = 0u64;
        let mut last: Option<(SimTime, u64)> = None;
        for op in ops {
            match op {
                Op::Schedule(offset) => {
                    let t = q.now() + pictor_sim::SimDuration::from_nanos(offset);
                    let id = q.schedule(t, next_payload);
                    pending.push((id, next_payload, t));
                    next_payload += 1;
                    scheduled += 1;
                }
                Op::Cancel(idx) => {
                    if !pending.is_empty() {
                        let (id, _, _) = pending.remove(idx % pending.len());
                        prop_assert!(q.cancel(id), "live pending event must cancel");
                        prop_assert!(!q.cancel(id), "double cancel must report false");
                        cancelled += 1;
                    }
                }
                Op::Pop => {
                    if let Some((t, payload)) = q.pop() {
                        popped += 1;
                        if let Some((lt, lp)) = last {
                            prop_assert!(t >= lt, "time went backwards: {t} after {lt}");
                            if t == lt {
                                prop_assert!(
                                    payload > lp,
                                    "FIFO tie-break violated: {payload} after {lp}"
                                );
                            }
                        }
                        let pos = pending.iter().position(|&(_, p, _)| p == payload);
                        prop_assert!(pos.is_some(), "popped a cancelled/unknown event");
                        let (_, _, scheduled_t) = pending.remove(pos.expect("checked"));
                        prop_assert_eq!(scheduled_t, t, "popped at a different time");
                        last = Some((t, payload));
                    }
                }
            }
        }
        // Drain the rest; the same invariants must hold to exhaustion.
        while let Some((t, payload)) = q.pop() {
            popped += 1;
            if let Some((lt, lp)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(payload > lp);
                }
            }
            let pos = pending.iter().position(|&(_, p, _)| p == payload);
            prop_assert!(pos.is_some(), "drained a cancelled/unknown event");
            pending.remove(pos.expect("checked"));
            last = Some((t, payload));
        }
        prop_assert_eq!(scheduled, popped + cancelled + pending.len() as u64);
        prop_assert!(pending.is_empty(), "live events left unpopped: {}", pending.len());
    }

    /// A stream's sequence depends only on (master seed, name): deriving
    /// streams and child trees in any order — or deriving extra ones in
    /// between — never changes another stream's output.
    #[test]
    fn seed_tree_streams_are_order_independent(
        master in any::<u64>(),
        name_ids in prop::collection::vec(any::<u32>(), 2..8),
        draws in 1usize..32,
    ) {
        let names: Vec<String> = name_ids.iter().map(|id| format!("stream-{id:x}")).collect();
        let tree = SeedTree::new(master);
        // Reference: derive each name's stream alone, in declaration order.
        let reference: Vec<Vec<u64>> = names
            .iter()
            .map(|n| {
                let mut rng = tree.stream(n);
                (0..draws).map(|_| rng.gen::<u64>()).collect()
            })
            .collect();
        // Re-derive in reverse order, interleaving unrelated derivations.
        for (i, name) in names.iter().enumerate().rev() {
            let _ = tree.child(&format!("noise-{name}"));
            let _ = tree.stream("unrelated");
            let mut rng = tree.stream(name);
            let replay: Vec<u64> = (0..draws).map(|_| rng.gen::<u64>()).collect();
            prop_assert_eq!(&replay, &reference[i], "stream {} changed", name);
        }
        // Child trees are order-independent too: the same path gives the
        // same master regardless of sibling derivations.
        let a = tree.child("a").child("b").master();
        let _ = tree.child("z");
        let b = tree.child("a").child("b").master();
        prop_assert_eq!(a, b);
    }

    /// Distinct names yield distinct streams (no accidental collisions in
    /// the small name spaces suites use).
    #[test]
    fn seed_tree_distinct_names_distinct_streams(
        master in any::<u64>(),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        prop_assume!(a != b);
        let tree = SeedTree::new(master);
        prop_assert_ne!(
            tree.seed_for(&format!("s{a}")),
            tree.seed_for(&format!("s{b}"))
        );
    }
}

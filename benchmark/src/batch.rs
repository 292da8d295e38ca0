//! The `batch-*` workloads: direct calls on a `PalPool`, every call timed
//! against its sequential twin in the same round of the same process, so
//! machine drift cancels out of the ratio.

use std::sync::Arc;

use lopram_core::PalPool;
use lopram_graph::gen;

use crate::kernels::{self, Kernel, Rng, Scratch};
use crate::stats::{geomean, lower_quartile};
use crate::sys::{self, now_ns};
use crate::trace::{Tracer, NONE};
use crate::workload::{Id, Pass, Sizes};

/// Calls timed together: one kernel on one input (`batch-large-*`), or many
/// small calls of one kernel (`batch-fine-pN`: 512 scans, 32 sorts).  The
/// item's time is the sum over its calls.
pub struct Item(pub Vec<Kernel>);

pub struct Batch {
    pool: PalPool,
    items: Vec<Item>,
    scratch: Scratch,
    /// Name of the span around one round.
    round_name: &'static str,
    /// XORed into every twin digest.  Always 0, except in the test that
    /// shows the correctness gate failing a run whose twin disagrees.
    pub(crate) twin_salt: u64,
}

/// Both orders (pool first, twin first) are used at least once.
const MIN_ROUNDS: u64 = 2;

fn single(kernel: Kernel) -> Item {
    Item(vec![kernel])
}

/// Few, fat calls: the working set (16 MiB of CSR at full size) exceeds L2.
fn large_items(rng: &mut Rng, z: &Sizes) -> Vec<Item> {
    let graph = Arc::new(gen::gnm_streamed(
        z.large_vertices,
        z.large_edges,
        rng.next_u64(),
    ));
    let src = rng.below(z.large_vertices as u64) as usize;
    let words = Arc::new(rng.words(z.large_scan));
    vec![
        single(Kernel::Bfs {
            graph: Arc::clone(&graph),
            src,
        }),
        single(Kernel::Components { graph }),
        single(Kernel::MergeSort {
            input: Arc::new(rng.words(z.large_sort)),
        }),
        single(kernels::karatsuba(rng, z.large_karatsuba)),
        single(Kernel::Scan {
            input: Arc::clone(&words),
            start: 0,
            len: z.large_scan,
        }),
        single(Kernel::Pack { input: words }),
        single(kernels::edit_distance(rng, z.large_dp_side)),
    ]
}

/// Thousands of thin blocked passes over L2-resident inputs: per-pass fixed
/// cost dominates, kernel arithmetic is negligible.  BFS starts in the
/// grid's corner so every seed walks the same `2·side − 2` levels.
fn fine_items(rng: &mut Rng, z: &Sizes) -> Vec<Item> {
    let words = Arc::new(rng.words(8192));
    let scans = (0..z.fine_scans)
        .map(|_| {
            let len = 256 + rng.below(4033) as usize;
            Kernel::Scan {
                input: Arc::clone(&words),
                start: rng.below((words.len() - len) as u64 + 1) as usize,
                len,
            }
        })
        .collect();
    let sorts = (0..z.fine_sorts)
        .map(|_| Kernel::MergeSort {
            input: Arc::new(rng.words(z.fine_sort_len)),
        })
        .collect();
    vec![
        single(Kernel::Bfs {
            graph: Arc::new(gen::grid(z.fine_grid_side, z.fine_grid_side)),
            src: 0,
        }),
        single(Kernel::Components {
            graph: Arc::new(gen::path_permuted(z.fine_path, rng.next_u64())),
        }),
        Item(scans),
        Item(sorts),
    ]
}

/// One call each, at probe size, of the kernels `seen` has no span of (or, in
/// a very short run, no twin span of): lets a traced run report a kernel
/// layer's numbers on a workload that never calls that layer.
pub fn probe_items(seen: &Tracer, seed: u64, z: &Sizes) -> Vec<Item> {
    let mut rng = Rng(seed ^ 0x70_72_6f_62_65);
    let graph = Arc::new(gen::gnm(z.probe_vertices, z.probe_edges, rng.next_u64()));
    let candidates = [
        Kernel::Bfs {
            graph: Arc::clone(&graph),
            src: 0,
        },
        Kernel::Components { graph },
        Kernel::MergeSort {
            input: Arc::new(rng.words(z.probe_sort)),
        },
        kernels::karatsuba(&mut rng, z.probe_karatsuba),
        kernels::edit_distance(&mut rng, z.probe_dp_side),
    ];
    candidates
        .into_iter()
        .filter(|k| {
            let names = k.names();
            seen.named(names.pool).next().is_none() || seen.named(names.twin).next().is_none()
        })
        .map(single)
        .collect()
}

/// What one side (pool or twin) of one item produced.
struct Side {
    ns: u64,
    digest: u64,
}

/// Run every call of `item` on the pool (`Some`) or as the twin (`None`),
/// timing each call alone: input copies and digests fall between the stamps.
fn run_side(
    item: &Item,
    pool: Option<&PalPool>,
    scratch: &mut Scratch,
    mut trace: Option<(&mut Tracer, u64, u64)>,
) -> Side {
    let mut side = Side { ns: 0, digest: 0 };
    for kernel in &item.0 {
        kernel.prepare(scratch);
        let start = now_ns();
        match pool {
            Some(pool) => kernel.run_pool(pool, scratch),
            None => kernel.run_twin(scratch),
        }
        let end = now_ns();
        side.ns += end - start;
        side.digest = side.digest.rotate_left(7) ^ kernel.digest(scratch);
        if let Some((tracer, parent, job)) = trace.as_mut() {
            let names = kernel.names();
            let (layer, name) = match pool {
                Some(_) => (names.layer, names.pool),
                None => ("twin", names.twin),
            };
            tracer.record(
                *parent,
                *job,
                layer,
                name,
                start,
                end,
                kernel.units(),
                kernel.levels(scratch),
            );
        }
    }
    side
}

/// [`run_side`] under the traced pass's meters: CPU time of either side, and
/// on the pool side allocations and voluntary context switches as well.
fn run_side_metered(
    item: &Item,
    pool: Option<&PalPool>,
    scratch: &mut Scratch,
    trace: (&mut Tracer, u64, u64),
    pass: &mut Pass,
) -> Side {
    // Room for the spans first, so the tracer itself does not allocate
    // while allocations are being counted.
    trace.0.spans.reserve(item.0.len());
    let (before, allocations) = (sys::task_totals(), sys::allocations());
    sys::set_counting(pool.is_some());
    let side = run_side(item, pool, scratch, Some(trace));
    sys::set_counting(false);
    let after = sys::task_totals();
    let cpu_ns = after.cpu_ns.saturating_sub(before.cpu_ns);
    if pool.is_some() {
        pass.allocations += sys::allocations() - allocations;
        pass.busy_cpu_ns += cpu_ns;
        pass.voluntary_switches += after
            .voluntary_switches
            .saturating_sub(before.voluntary_switches);
    } else {
        pass.twin_cpu_ns += cpu_ns;
    }
    side
}

impl Batch {
    pub fn setup(id: Id, seed: u64, z: &Sizes) -> Batch {
        let mut rng = Rng(seed);
        let (p, items) = match id {
            Id::BatchLargeP1 => (1, large_items(&mut rng, z)),
            Id::BatchLargePN => (sys::nproc(), large_items(&mut rng, z)),
            Id::BatchFinePN => (sys::nproc(), fine_items(&mut rng, z)),
            Id::ServeTinyClosed | Id::ServeMixedOpen => {
                unreachable!("{} is not a batch workload", id.name())
            }
        };
        Batch::with_items(p, items, z.warmup_rounds, "round")
    }

    /// A pool of `p` processors warmed up on `items` (to arena fixpoint).
    pub fn with_items(
        p: usize,
        items: Vec<Item>,
        warmup_rounds: usize,
        round_name: &'static str,
    ) -> Batch {
        let mut batch = Batch {
            pool: PalPool::new(p).expect("p >= 1"),
            items,
            scratch: Scratch::default(),
            round_name,
            twin_salt: 0,
        };
        sys::pin_threads(p);
        for _ in 0..warmup_rounds {
            for item in &batch.items {
                run_side(item, Some(&batch.pool), &mut batch.scratch, None);
                run_side(item, None, &mut batch.scratch, None);
            }
        }
        batch
    }

    pub fn processors(&self) -> usize {
        self.pool.processors()
    }

    /// Rounds until `seconds` have passed (at least [`MIN_ROUNDS`]).  In each
    /// round every item runs once on the pool and once as its twin, the
    /// order alternating between rounds, and the two digests must agree.
    pub fn run(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Pass {
        let Batch {
            pool,
            items,
            scratch,
            round_name,
            twin_salt,
        } = self;
        let mut pass = Pass::default();
        let mut pool_ns = vec![Vec::new(); items.len()];
        let mut twin_ns = vec![Vec::new(); items.len()];
        let mut correct_rounds = 0u64;
        let before = pool.metrics().snapshot();
        let deadline = now_ns() + (seconds * 1e9) as u64;
        while pass.attempted < MIN_ROUNDS || now_ns() < deadline {
            pass.attempted += 1;
            let job = pass.attempted;
            let round = tracer
                .as_deref_mut()
                .map_or(NONE, |t| t.open(NONE, job, "harness", round_name, now_ns()));
            let mut round_ns = 0;
            let mut agree = true;
            for (i, item) in items.iter().enumerate() {
                let mut side = |on_pool: bool| {
                    let side_pool = on_pool.then_some(&*pool);
                    match tracer.as_deref_mut() {
                        None => run_side(item, side_pool, scratch, None),
                        Some(t) => {
                            run_side_metered(item, side_pool, scratch, (t, round, job), &mut pass)
                        }
                    }
                };
                let (on_pool, twin) = if job.is_multiple_of(2) {
                    let twin = side(false);
                    (side(true), twin)
                } else {
                    (side(true), side(false))
                };
                agree &= on_pool.digest == twin.digest ^ *twin_salt;
                round_ns += on_pool.ns;
                pool_ns[i].push(on_pool.ns as f64);
                twin_ns[i].push(twin.ns as f64);
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.close(round, now_ns());
            }
            pass.latency.record(round_ns);
            pass.busy_wall_ns += round_ns;
            correct_rounds += u64::from(agree);
        }
        pass.failed = pass.attempted - correct_rounds;
        pass.pool = pool.metrics().snapshot().delta_since(&before);
        pass.jobs_per_s = correct_rounds as f64 / (pass.busy_wall_ns as f64 / 1e9);
        pass.latency_p50_ns = pass.latency.quantile(0.5);
        pass.latency_p90_ns = pass.latency.quantile(0.9);
        let ratios: Vec<f64> = pool_ns
            .iter()
            .zip(&twin_ns)
            .map(|(pool, twin)| lower_quartile(pool) / lower_quartile(twin))
            .collect();
        pass.time_vs_seq = geomean(&ratios);
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rounds_agree_with_their_twins() {
        for id in [Id::BatchLargeP1, Id::BatchLargePN, Id::BatchFinePN] {
            let mut batch = Batch::setup(id, 5, &Sizes::SMOKE);
            let mut tracer = Tracer::default();
            let pass = batch.run(0.05, Some(&mut tracer));
            assert!(pass.attempted >= MIN_ROUNDS);
            assert_eq!(pass.failed, 0, "{}", id.name());
            assert!(pass.time_vs_seq > 0.0 && pass.jobs_per_s > 0.0);
            assert_eq!(pass.latency.count(), pass.attempted);
            let rounds = tracer.named("round").count() as u64;
            assert_eq!(rounds, pass.attempted);
            // Every kernel span hangs under its round.
            assert!(tracer
                .spans
                .iter()
                .all(|s| s.name == "round" || s.parent != NONE));
        }
    }

    #[test]
    fn a_corrupted_twin_digest_fails_every_round() {
        let mut batch = Batch::setup(Id::BatchFinePN, 5, &Sizes::SMOKE);
        batch.twin_salt = 1;
        let pass = batch.run(0.02, None);
        assert_eq!(pass.failed, pass.attempted);
        assert_eq!(pass.jobs_per_s, 0.0);
    }

    #[test]
    fn fork_counts_repeat_exactly_between_passes() {
        let mut batch = Batch::setup(Id::BatchLargePN, 11, &Sizes::SMOKE);
        let a = batch.run(0.02, None);
        let b = batch.run(0.02, Some(&mut Tracer::default()));
        let per_job = |p: &Pass| {
            (
                p.pool.forks() as f64 / p.attempted as f64,
                p.pool.elided as f64 / p.attempted as f64,
            )
        };
        assert_eq!(per_job(&a), per_job(&b));
        assert!(a.pool.forks() > 0);
    }
}

//! Property tests for the merge-correctness battery and the
//! deterministic parallel executor: merging per-thread stats must be
//! lossless (merge of splits == whole), and `par::run_indexed` must be
//! schedule-independent with labelled first-cell panic propagation.

use scue_util::obs::Histogram;
use scue_util::par;
use scue_util::prop::{self, collection, prelude::*, run_property};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Builds a histogram from a slice of samples.
fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram::merge of any split == the histogram of the whole:
    /// bucket-exact, so count/total/min/max and every quantile agree.
    #[test]
    fn histogram_merge_of_splits_equals_whole(
        samples in collection::vec(0u64..1_000_000, 0..200),
        cut in any::<usize>(),
    ) {
        let cut = if samples.is_empty() { 0 } else { cut % (samples.len() + 1) };
        let whole = hist_of(&samples);
        let mut merged = hist_of(&samples[..cut]);
        merged.merge(&hist_of(&samples[cut..]));
        prop_assert_eq!(merged, whole);
        // The derived statistics follow from structural equality, but
        // assert the ones the figure tables print, explicitly.
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }

    /// Histogram::merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn histogram_merge_commutes(
        a in collection::vec(0u64..1_000_000, 0..100),
        b in collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab, ba);
    }

    /// run_indexed returns serial-identical results at any job count,
    /// including with per-cell seed-stream randomness.
    #[test]
    fn run_indexed_matches_serial_at_any_job_count(
        items in collection::vec(0u64..1_000_000, 0..50),
        jobs in 1usize..9,
    ) {
        let cell = |i: usize, x: &u64, mut sm: scue_util::rng::SplitMix64| {
            (i as u64).wrapping_mul(31) ^ x.wrapping_add(sm.next_u64())
        };
        let serial = par::run_indexed(1, &items, cell);
        let parallel = par::run_indexed(jobs, &items, cell);
        prop_assert_eq!(parallel, serial);
    }

    /// A panicking cell fails the fan-out with the lowest panicking
    /// index in its label, at any job count.
    #[test]
    fn run_indexed_panics_name_the_first_failing_cell(
        len in 1usize..40,
        panic_seed in any::<u64>(),
        jobs in 1usize..9,
    ) {
        let panic_at = (panic_seed % len as u64) as usize;
        let items: Vec<usize> = (0..len).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par::run_indexed(jobs, &items, |i, _, _| {
                if i >= panic_at {
                    panic!("torn cell {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("a panicking cell must fail the fan-out");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        prop_assert!(
            message.contains(&format!("parallel cell {panic_at} ")),
            "jobs={jobs}: {message}"
        );
        prop_assert!(message.contains(&format!("torn cell {panic_at}")), "{message}");
    }
}

/// The shrinker drives the executor itself: a property that fails
/// whenever some cell panics must shrink to the minimal panicking
/// input, proving panic propagation composes with `shrink_failure`.
#[test]
fn shrinker_minimises_a_panicking_parallel_input() {
    let config = prop::ProptestConfig {
        cases: 200,
        seed: 11,
        max_shrink_evals: 8192,
    };
    let strategy = (collection::vec(0u64..1000, 0..30), 1usize..9);
    let failure = run_property(&config, &strategy, |(items, jobs)| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            par::run_indexed(jobs, &items, |_, &x, _| {
                assert!(x < 10, "cell value {x} out of range");
                x
            })
        }));
        match outcome {
            Ok(_) => Ok(()),
            Err(payload) => Err(payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into())),
        }
    })
    .expect_err("some generated vec contains a big element");
    // The minimal counterexample is the single smallest panicking cell
    // at the minimal job count — the executor must stay deterministic
    // all the way down the shrink sequence for greedy shrinking to
    // converge here.
    assert_eq!(failure.minimal.0, vec![10], "{failure:?}");
    assert_eq!(failure.minimal.1, 1, "{failure:?}");
    assert!(
        failure.message.contains("cell value 10 out of range"),
        "{}",
        failure.message
    );
}

//! Property tests for the span profiler's merge contract: merging
//! per-worker [`SpanProfile`]s must be commutative and lossless (merge
//! of splits == the profile of the whole run), the same battery the
//! histogram merge passes in `prop_par.rs` — plus
//! a live check that splitting an actual instrumented run across two
//! `take_thread_profile` harvests loses nothing.

use scue_util::obs::span::{self, Clock, SpanProfile, SpanStats};
use scue_util::prop::{collection, prelude::*};

/// Fixed edge universe so random entry streams actually collide on
/// `(parent, name)` keys, exercising the absorb path.
const PARENTS: [&str; 3] = [span::ROOT, "engine.request", "itree.walk"];
const NAMES: [&str; 5] = [
    "hmac.compute",
    "codec.encode",
    "codec.decode",
    "mdcache.lookup",
    "wpq.persist",
];

/// One generated record: (parent index, name index, stats fields).
type Entry = (u8, u8, u64, u64, u64, u64);

/// Builds a profile from an entry stream via the same `record`
/// primitive live collection uses.
fn profile_of(entries: &[Entry]) -> SpanProfile {
    let mut p = SpanProfile::new();
    for &(parent, name, calls, total, allocs, bytes) in entries {
        p.record(
            PARENTS[parent as usize % PARENTS.len()],
            NAMES[name as usize % NAMES.len()],
            SpanStats {
                calls,
                total_ns: total,
                self_ns: total / 2,
                allocs,
                alloc_bytes: bytes,
            },
        );
    }
    p
}

fn entry_strategy() -> impl Strategy<Value = Vec<Entry>> {
    collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            1u64..1_000,
            0u64..1_000_000,
            0u64..10_000,
            0u64..1_000_000,
        ),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SpanProfile::merge of any split == the profile of the whole
    /// entry stream: edge-exact, so every derived view (JSON rendering,
    /// self-time ranking, coverage) agrees too.
    #[test]
    fn span_merge_of_splits_equals_whole(
        entries in entry_strategy(),
        cut in any::<usize>(),
    ) {
        let cut = if entries.is_empty() { 0 } else { cut % (entries.len() + 1) };
        let whole = profile_of(&entries);
        let mut merged = profile_of(&entries[..cut]);
        merged.merge(&profile_of(&entries[cut..]));
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.to_json().render(), whole.to_json().render());
        prop_assert_eq!(merged.self_time_ranking(), whole.self_time_ranking());
        prop_assert_eq!(
            merged.coverage_under("engine.request"),
            whole.coverage_under("engine.request")
        );
    }

    /// SpanProfile::merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn span_merge_commutes(
        a in entry_strategy(),
        b in entry_strategy(),
    ) {
        let mut ab = profile_of(&a);
        ab.merge(&profile_of(&b));
        let mut ba = profile_of(&b);
        ba.merge(&profile_of(&a));
        prop_assert_eq!(ab, ba);
    }

    /// Merging an empty profile is the identity, from either side.
    #[test]
    fn span_merge_empty_is_identity(entries in entry_strategy()) {
        let whole = profile_of(&entries);
        let mut left = SpanProfile::new();
        left.merge(&whole);
        prop_assert_eq!(&left, &whole);
        let mut right = whole.clone();
        right.merge(&SpanProfile::new());
        prop_assert_eq!(&right, &whole);
    }
}

/// Live split-run property on the virtual clock: harvesting the
/// thread profile halfway through a run and merging it with the rest
/// equals running the whole sequence uninterrupted. This is the exact
/// shape `scue_util::par` fan-outs rely on when per-worker profiles
/// are merged. (Single test touches the global enable switch; the
/// proptest batteries above are pure, so no cross-test serialisation
/// is needed.)
#[test]
fn live_split_harvest_equals_whole_run() {
    fn run_leaves(count: u64) {
        for _ in 0..count {
            let _outer = span::enter("engine.request");
            let _inner = span::enter("hmac.compute");
        }
    }

    span::set_clock(Clock::Virtual);
    span::set_enabled(true);

    span::reset_thread();
    run_leaves(7);
    let mut first = span::take_thread_profile();
    run_leaves(5);
    first.merge(&span::take_thread_profile());

    span::reset_thread();
    run_leaves(12);
    let whole = span::take_thread_profile();

    span::set_enabled(false);
    assert_eq!(first, whole);
    let stats = whole.get("engine.request", "hmac.compute").unwrap();
    assert_eq!(stats.calls, 12);
}

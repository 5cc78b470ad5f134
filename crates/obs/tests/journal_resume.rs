//! End-to-end crash-recovery properties: a journal cut anywhere — at any
//! event prefix or any *byte* offset — recovers to a snapshot whose resumed
//! run reproduces the uninterrupted trace, cost, and JSONL stream
//! byte-for-byte.

use dbp_core::algorithms::indexed::{
    GIndexedBestFit, GIndexedFirstFit, IndexedBestFit, IndexedFirstFit,
};
use dbp_core::algorithms::{BestFit, FirstFit, ModifiedFirstFit, NextFit, RandomFit};
use dbp_core::demand::{Demand, VSize};
use dbp_core::instance::{GInstance, GInstanceBuilder};
use dbp_core::packer::GSelectorFactory;
use dbp_core::prelude::*;
use dbp_obs::export::events_to_jsonl_dims;
use dbp_obs::journal::{parse_journal, FsyncPolicy, JournalProbe};
use dbp_obs::prelude::*;
use dbp_obs::GEventLog;
use proptest::prelude::*;
use proptest::TestCaseError;

fn selectors(seed: u64) -> [SelectorFactory; 7] {
    [
        SelectorFactory::new("FF", || Box::new(FirstFit::new())),
        SelectorFactory::new("BF", || Box::new(BestFit::new())),
        SelectorFactory::new("NF", || Box::new(NextFit::new())),
        SelectorFactory::new("MFF", || Box::new(ModifiedFirstFit::new(4))),
        SelectorFactory::new("IFF", || Box::new(IndexedFirstFit::new())),
        SelectorFactory::new("IBF", || Box::new(IndexedBestFit::new())),
        SelectorFactory::new("RF", move || Box::new(RandomFit::seeded(seed))),
    ]
}

/// The dimension-agnostic selectors, for the D=3 cuts.
fn vector_selectors() -> [GSelectorFactory<VSize<3>>; 5] {
    [
        GSelectorFactory::new("FF", || Box::new(FirstFit::new())),
        GSelectorFactory::new("BF", || Box::new(BestFit::new())),
        GSelectorFactory::new("MFF", || Box::new(ModifiedFirstFit::new(4))),
        GSelectorFactory::new("IFF", || Box::new(GIndexedFirstFit::new())),
        GSelectorFactory::new("IBF", || Box::new(GIndexedBestFit::new())),
    ]
}

fn build_instance(raw: &[(u64, u64, u64)]) -> Instance {
    let mut b = InstanceBuilder::new(10);
    for &(a, len, size) in raw {
        b.add(a, a + len, size);
    }
    b.build().unwrap()
}

/// The same arrivals at three dimensions: the scalar size on dimension 0
/// and two other footprints derived from it, so a different dimension can
/// bind from item to item.
fn build_instance_d3(raw: &[(u64, u64, u64)]) -> GInstance<VSize<3>> {
    let mut b = GInstanceBuilder::new(VSize([10, 8, 12]));
    for &(a, len, size) in raw {
        b.add(a, a + len, VSize([size, 1 + (size * 3) % 8, 13 - size]));
    }
    b.build().unwrap()
}

/// Resume from a snapshot recovered at every event prefix of each
/// selector's journal: the final trace, the cost and the JSONL stream
/// (journal prefix + continuation, byte-wise) must equal the
/// uninterrupted run's.
fn check_every_event_cut<Sz: Demand>(
    inst: &GInstance<Sz>,
    factories: &[GSelectorFactory<Sz>],
) -> Result<(), TestCaseError> {
    for factory in factories {
        let mut sel = factory.build();
        // The name recovery must match is the selector's own (the
        // indexed variants report their naive twin's name by design).
        let alg = sel.name();
        let mut log = GEventLog::<Sz>::new();
        let full_trace = simulate_probed(inst, &mut *sel, &mut log);
        let events = log.into_events();
        let full_jsonl = events_to_jsonl_dims(&events);
        for cut in 0..=events.len() {
            let rec = snapshot_from_events(inst, alg, &events[..cut])
                .map_err(|e| TestCaseError::Fail(format!("{} cut {cut}: {e}", factory.name())))?;
            prop_assert!(rec.events_used <= cut);
            let mut sel2 = factory.build();
            let mut log2 = GEventLog::<Sz>::new();
            let trace = simulate_resumed_probed(inst, &mut *sel2, &mut log2, &rec.snapshot)
                .map_err(|e| {
                    TestCaseError::Fail(format!("{} cut {cut}: resume: {e}", factory.name()))
                })?;
            prop_assert_eq!(
                &trace,
                &full_trace,
                "{} trace diverged at {}",
                factory.name(),
                cut
            );
            prop_assert_eq!(trace.total_cost_ticks(), full_trace.total_cost_ticks());
            let mut combined = events_to_jsonl_dims(&events[..rec.events_used]);
            combined.push_str(&events_to_jsonl_dims(&log2.into_events()));
            prop_assert_eq!(
                combined.as_bytes(),
                full_jsonl.as_bytes(),
                "{} JSONL stream diverged at {}",
                factory.name(),
                cut
            );
        }
    }
    Ok(())
}

proptest! {
    /// Resuming from a snapshot taken at *every* event prefix yields an
    /// identical final trace, cost, and JSONL stream (journal prefix +
    /// continuation, byte-wise) — for the scalar instance and its
    /// three-dimensional counterpart.
    #[test]
    fn resume_at_every_event_prefix_is_jsonl_byte_identical(
        raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..10),
        seed in 0u64..1_000,
    ) {
        check_every_event_cut(&build_instance(&raw), &selectors(seed))?;
        check_every_event_cut(&build_instance_d3(&raw), &vector_selectors())?;
    }

    /// The same property through the on-disk WAL: truncate the journal
    /// *file* at arbitrary byte offsets (simulating SIGKILL mid-append),
    /// read it torn-tolerantly, recover, resume, and demand byte-identical
    /// JSONL.
    #[test]
    fn journal_file_cut_at_any_byte_recovers_exactly(
        raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..8),
        stride in 1usize..23,
    ) {
        let inst = build_instance(&raw);
        let dir = std::env::temp_dir().join("dbp_obs_journal_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.wal");
        let mut probe = JournalProbe::create(&path, FsyncPolicy::Never).unwrap();
        let full_trace = simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        probe.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut log = EventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        let full_jsonl = events_to_jsonl(log.events());
        for cut in (0..=bytes.len()).step_by(stride) {
            // Torn tails must decode (never error, never panic)...
            let contents = parse_journal(&bytes[..cut])
                .map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: {e}")))?;
            // ...and the decoded prefix must recover and resume exactly.
            let rec = snapshot_from_events(&inst, "FF", &contents.events)
                .map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: {e}")))?;
            let mut log2 = EventLog::new();
            let trace = simulate_resumed_probed(
                &inst, &mut FirstFit::new(), &mut log2, &rec.snapshot,
            ).map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: resume: {e}")))?;
            prop_assert_eq!(&trace, &full_trace);
            let mut combined =
                events_to_jsonl(&contents.events[..rec.events_used]);
            combined.push_str(&events_to_jsonl(&log2.into_events()));
            prop_assert_eq!(combined, full_jsonl.clone(), "byte cut at {}", cut);
        }
    }
}

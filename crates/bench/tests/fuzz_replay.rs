//! Replays the checked-in fuzz regression corpus
//! (`corpus/fuzz_corpus.txt`): every minimized failure ever found — and
//! the generator-coverage seeds the corpus started with — must keep
//! passing the differential and fault-injection checks.

use polyflow_bench::fuzz::{corpus_program_seeds, replay_corpus, CORPUS};

#[test]
fn regression_corpus_replays_clean() {
    let report = replay_corpus(CORPUS).expect("corpus parses");
    assert!(report.seeds_run >= 10, "corpus should stay populated");
    assert!(
        report.failures.is_empty(),
        "corpus regressions:\n{}",
        report.failures.join("\n")
    );
    // The differential tests of the preparation oracles run over the
    // corpus's program seeds.
    assert!(corpus_program_seeds().len() >= 10);
}

//! Diagnostic: shows what each policy keeps resident at the end of a
//! sample (ages and positions), plus its perplexity.
//!
//! Usage: `policy_probe [POLICY ...]` — policies by name (`h2o`,
//! `voting`, `sliding_window`, …); defaults to h2o/voting/sliding_window.
//! Each is built as `veda_bench::calibrated_policy` builds it; voting also
//! prints what its threshold did (`VoteStats`).
fn main() {
    use veda_bench::CALIBRATED_VOTING;
    use veda_eviction::{CacheSimulator, EvictionPolicy, PolicyKind, VotingPolicy};
    use veda_model::*;
    let policies: Vec<PolicyKind> = std::env::args()
        .skip(1)
        .map(|arg| {
            arg.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .collect();
    let policies = if policies.is_empty() {
        vec![PolicyKind::H2o, PolicyKind::Voting, PolicyKind::SlidingWindow]
    } else {
        policies
    };
    let corpus = Corpus::new(CorpusConfig::default());
    let lm = InductionLm::new(InductionConfig::default(), &corpus);
    let n = 1200;
    let sample = corpus.sample(0, n);
    if let Err(e) = CALIBRATED_VOTING.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    for kind in policies {
        // Voting is held by its concrete type so its statistics can be read
        // back; it is the policy `calibrated_policy` builds.
        let mut voting = VotingPolicy::new(CALIBRATED_VOTING);
        let mut other = veda_bench::calibrated_policy(kind);
        let p: &mut dyn EvictionPolicy =
            if kind == PolicyKind::Voting { &mut voting } else { other.as_mut() };
        let mut sim = CacheSimulator::new(p, 128);
        let eval = lm.evaluate_in(&sample, &mut sim, &corpus);
        let residents = sim.resident();
        let recent = residents.iter().filter(|&&r| r + 200 >= n).count();
        let stale = residents.iter().filter(|&&r| r + 600 < n).count();
        let entities = residents.iter().filter(|&&r| corpus.is_entity(sample[r])).count();
        let cur_topic = corpus.topic_at(n - 1);
        let cur_entities = residents
            .iter()
            .filter(|&&r| corpus.is_entity(sample[r]) && corpus.topic_at(r) == cur_topic)
            .count();
        println!(
            "{kind:>16}: ppl {:>7.1}  recent {recent:>4}  stale {stale:>4}  entity-anchors {entities:>3} (current topic {cur_entities:>3})  sample: {:?}",
            eval.perplexity(),
            residents.iter().step_by(16).collect::<Vec<_>>()
        );
        if kind == PolicyKind::Voting {
            let stats = voting.stats();
            println!(
                "{:>16}  {CALIBRATED_VOTING:?}: rounds {}  fallback rate {:.3}  votes/round {:.1} of {:.1} votable",
                "",
                stats.rounds,
                stats.fallback_rate(),
                stats.votes_per_round(),
                stats.votable as f64 / stats.rounds.max(1) as f64,
            );
        }
    }
}

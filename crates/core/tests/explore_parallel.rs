//! Determinism of the parallel exploration engine: the trace must be
//! bit-identical (up to wall-clock synthesis time) at every thread
//! count, for every strategy. The frontier is deduplicated and cached
//! before work is spawned, and the reduction runs serially in proposal
//! order, so worker scheduling can never leak into the result.

use archex::{workloads, EvalCache, Explorer, FaultPlan, Stage, Strategy};

fn toy() -> isdl::Machine {
    isdl::load(isdl::samples::TOY).expect("TOY fixture loads")
}

fn explorer(strategy: Strategy, threads: usize) -> Explorer {
    Explorer { max_steps: 6, strategy, threads, ..Explorer::default() }
}

#[test]
fn parallel_greedy_trace_matches_serial() {
    let kernels = vec![workloads::dot_product(3)];
    let serial = explorer(Strategy::Greedy, 1).run(&toy(), &kernels).expect("explores");
    let parallel = explorer(Strategy::Greedy, 4).run(&toy(), &kernels).expect("explores");
    assert!(serial.steps.len() > 1, "the run actually improved something");
    assert!(
        serial.semantic_eq(&parallel),
        "greedy trace depends on thread count:\n  serial   {:?}\n  parallel {:?}",
        serial.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
        parallel.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
    );
}

#[test]
fn parallel_beam_trace_matches_serial() {
    let kernels = vec![workloads::dot_product(3)];
    let strategy = Strategy::Beam { width: 3 };
    let serial = explorer(strategy, 1).run(&toy(), &kernels).expect("explores");
    let parallel = explorer(strategy, 4).run(&toy(), &kernels).expect("explores");
    assert!(
        serial.semantic_eq(&parallel),
        "beam trace depends on thread count:\n  serial   {:?}\n  parallel {:?}",
        serial.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
        parallel.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
    );
}

#[test]
fn greedy_is_beam_of_width_one() {
    // Greedy is the width-1 case of the one round loop — including the
    // final machine of a run that converges before `max_steps`.
    for kernels in [vec![workloads::dot_product(2)], vec![workloads::dot_product(3)]] {
        for max_steps in [6, 16] {
            for threads in [1, 4] {
                let run = |strategy| {
                    Explorer { max_steps, ..explorer(strategy, threads) }
                        .run(&toy(), &kernels)
                        .expect("explores")
                };
                let greedy = run(Strategy::Greedy);
                let beam = run(Strategy::Beam { width: 1 });
                assert!(
                    greedy.semantic_eq(&beam),
                    "max_steps {max_steps}, threads {threads}: beam-1 differs from greedy:\n  \
                     greedy {:?}\n  beam-1 {:?}",
                    greedy.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
                    beam.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
                );
            }
        }
    }
}

#[test]
fn serial_runs_are_deterministic() {
    // Two identically configured runs must agree with *themselves*
    // before thread-count comparisons mean anything — this guards the
    // proposal ordering against hash-map iteration order.
    let kernels = vec![workloads::dot_product(3)];
    for strategy in [Strategy::Greedy, Strategy::Beam { width: 3 }] {
        let a = explorer(strategy, 1).run(&toy(), &kernels).expect("explores");
        let b = explorer(strategy, 1).run(&toy(), &kernels).expect("explores");
        assert!(a.semantic_eq(&b), "{strategy:?} differs between identical runs");
    }
}

#[test]
fn beam_run_hits_the_cache() {
    // Sibling beam entries propose overlapping mutations; the memoized
    // frontier must convert those duplicates into cache hits.
    let kernels = vec![workloads::dot_product(3)];
    let trace = explorer(Strategy::Beam { width: 3 }, 2).run(&toy(), &kernels).expect("explores");
    assert!(trace.cache_hits > 0, "beam search re-proposed nothing?");
    assert!(trace.evaluated < trace.candidates_evaluated());
    assert_eq!(trace.skipped_errors, 0, "TOY neighbours all evaluate");
    assert!(trace.first_error.is_none());
}

#[test]
fn observability_counters_are_thread_count_invariant() {
    // The embedded observability must not undermine determinism: the
    // per-round frontier accounting (proposed / unique / fresh / cache
    // hits) is part of `semantic_eq` and must be byte-identical at any
    // thread count. Only the timing summaries may differ.
    let kernels = vec![workloads::dot_product(3)];
    for strategy in [Strategy::Greedy, Strategy::Beam { width: 3 }] {
        let serial = explorer(strategy, 1).run(&toy(), &kernels).expect("explores");
        let parallel = explorer(strategy, 4).run(&toy(), &kernels).expect("explores");
        assert!(!serial.obs.rounds.is_empty(), "rounds were recorded");
        assert_eq!(
            serial.obs.rounds, parallel.obs.rounds,
            "{strategy:?} frontier accounting depends on thread count"
        );
        for trace in [&serial, &parallel] {
            let evaluated: usize = trace.obs.rounds.iter().map(|r| r.fresh).sum::<usize>() + 1; // the initial candidate is evaluated outside the rounds
            assert_eq!(evaluated, trace.evaluated, "round fresh counts sum to `evaluated`");
            let hits: usize = trace.obs.rounds.iter().map(|r| r.cache_hits).sum();
            assert_eq!(hits, trace.cache_hits, "round hit counts sum to `cache_hits`");
            for r in &trace.obs.rounds {
                assert!(r.unique <= r.proposed);
                assert!(r.fresh <= r.unique);
                assert_eq!(r.cache_hits, r.proposed - r.fresh);
            }
        }
    }
}

#[test]
fn thread_evals_sum_to_evaluated() {
    let kernels = vec![workloads::dot_product(3)];
    for threads in [1, 4] {
        let trace = explorer(Strategy::Greedy, threads).run(&toy(), &kernels).expect("explores");
        let total: u64 = trace.obs.thread_evals.iter().sum();
        assert_eq!(total as usize, trace.evaluated, "threads={threads}");
        assert_eq!(trace.obs.thread_evals.len(), threads);
        // The instrumented run measured every fresh evaluation.
        assert_eq!(trace.obs.eval_latency_us.count as usize, trace.evaluated);
        assert!(trace.obs.wall_s > 0.0);
    }
}

#[test]
fn uninstrumented_run_is_semantically_identical() {
    let kernels = vec![workloads::dot_product(3)];
    let on = explorer(Strategy::Greedy, 2).run(&toy(), &kernels).expect("explores");
    let off = Explorer { instrument: false, ..explorer(Strategy::Greedy, 2) }
        .run(&toy(), &kernels)
        .expect("explores");
    assert!(on.semantic_eq(&off), "instrumentation changed the search");
    assert_eq!(off.obs.eval_latency_us.count, 0, "no timing collected when disabled");
    assert_eq!(off.obs.wall_s, 0.0);
    let total: u64 = off.obs.thread_evals.iter().sum();
    assert_eq!(total as usize, off.evaluated, "eval counts stay on when timing is off");
}

#[test]
fn trace_json_is_schema_valid() {
    let kernels = vec![workloads::dot_product(3)];
    let trace = explorer(Strategy::Greedy, 2).run(&toy(), &kernels).expect("explores");
    let text = trace.to_json().to_pretty();
    let parsed = obs::Json::parse(&text).expect("trace JSON parses");
    assert_eq!(parsed.get_str("schema"), Some(archex::EXPLORE_SCHEMA));
    assert_eq!(parsed.get_u64("evaluated"), Some(trace.evaluated as u64));
    let rounds = parsed
        .get("obs")
        .and_then(|o| o.get("rounds"))
        .and_then(|r| r.as_arr())
        .expect("obs.rounds present");
    assert_eq!(rounds.len(), trace.obs.rounds.len());
    assert_eq!(
        rounds[0].get_u64("proposed"),
        Some(trace.obs.rounds[0].proposed as u64),
        "round JSON mirrors the struct"
    );
}

#[test]
fn skip_counters_are_exact_and_thread_count_invariant_under_faults() {
    // An injected mid-run panic must produce *exactly* one skip, the
    // same `first_error` string, and identical round accounting at
    // every thread count — error handling is part of the determinism
    // contract, not an exception to it.
    let kernels = vec![workloads::dot_product(3)];
    let fault = FaultPlan::panic_at(Stage::Simulate, 3);
    let traces: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            Explorer { fault_plan: Some(fault.clone()), ..explorer(Strategy::Greedy, threads) }
                .run(&toy(), &kernels)
                .expect("faulted run completes")
        })
        .collect();
    for t in &traces {
        assert_eq!(t.skipped_errors, 1, "exactly the armed evaluation was skipped");
        let first = t.first_error.as_deref().expect("first error recorded");
        assert!(first.contains("toolchain panic"), "skip is attributed: {first}");
    }
    for t in &traces[1..] {
        assert!(traces[0].semantic_eq(t), "faulted trace depends on thread count");
        assert_eq!(traces[0].first_error, t.first_error);
        assert_eq!(traces[0].obs.rounds, t.obs.rounds);
    }
}

#[test]
fn shared_cache_carries_across_runs() {
    let kernels = vec![workloads::dot_product(3)];
    let cache = EvalCache::new();
    let e = explorer(Strategy::Greedy, 2);
    let first = e.run_cached(&toy(), &kernels, &cache).expect("explores");
    let warm = e.run_cached(&toy(), &kernels, &cache).expect("explores");
    assert!(first.evaluated > 0);
    assert_eq!(warm.evaluated, 0, "second run re-evaluated a cached machine");
    assert_eq!(warm.cache_hits, first.candidates_evaluated());
    assert_eq!(first.machine, warm.machine);
    assert!(cache.hit_count() >= warm.cache_hits);
}

#[test]
fn progress_heartbeats_emit_jsonl_and_human_lines() {
    use std::sync::{Arc, Mutex};
    /// A `Write` sink whose bytes stay readable through a shared handle.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Buf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8")
        }
        fn sink(&self) -> archex::ProgressSink {
            Arc::new(Mutex::new(self.clone()))
        }
    }
    impl std::io::Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let dir = std::env::temp_dir().join(format!("archex-progress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.prom");
    let kernels = vec![workloads::dot_product(3)];
    for strategy in [Strategy::Greedy, Strategy::Beam { width: 3 }] {
        let (jsonl, human) = (Buf::default(), Buf::default());
        let _ = std::fs::remove_file(&metrics);
        let progress = archex::Progress {
            interval_ms: 0, // beat every round
            jsonl: Some(jsonl.sink()),
            human: Some(human.sink()),
            metrics_out: Some(metrics.clone()),
        };
        let trace =
            Explorer { progress: Some(progress), instrument: true, ..explorer(strategy, 2) }
                .run(&toy(), &kernels)
                .expect("explores");

        assert!(trace.obs.heartbeats > 0, "{strategy:?}: at least one beat per finished round");
        assert_eq!(trace.obs.heartbeats as usize, trace.obs.rounds.len(), "{strategy:?}");
        // Heartbeats never feed the determinism contract.
        let plain = explorer(strategy, 2).run(&toy(), &kernels).expect("explores");
        assert!(trace.semantic_eq(&plain), "{strategy:?}: progress reporting changed the search");

        let text = jsonl.text();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len() as u64, trace.obs.heartbeats, "one JSONL line per beat");
        for (i, line) in lines.iter().enumerate() {
            let j = obs::Json::parse(line).expect("heartbeat line parses");
            assert_eq!(j.get_str("schema"), Some(archex::PROGRESS_SCHEMA));
            assert_eq!(j.get_u64("seq"), Some(i as u64 + 1), "seq is 1-based and dense");
            assert_eq!(j.get_u64("round"), Some(i as u64 + 1));
            let frontier = j.get_u64("frontier").expect("frontier");
            assert_eq!(frontier as usize, trace.obs.rounds[i].proposed, "{strategy:?}");
            assert!(j.get_f64("hit_rate").expect("hit_rate") <= 1.0);
            assert!(j.get_f64("eta_s").is_some());
            assert!(j.get("errors").is_some(), "error histogram object present");
        }

        let text = human.text();
        assert_eq!(text.lines().count() as u64, trace.obs.heartbeats);
        assert!(text.lines().all(|l| l.starts_with("[explore] round ")), "one-liner format");

        // The Prometheus textfile was (re)written atomically each beat
        // and reflects the instrumented registry.
        let prom = std::fs::read_to_string(&metrics).expect("metrics file written");
        assert!(prom.contains("obs_enabled 1"), "rendered from the live registry:\n{prom}");
        assert!(prom.contains("explore_frontier"), "gauge exported");
    }
    std::fs::remove_dir_all(&dir).ok();
}

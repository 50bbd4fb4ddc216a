//! The flight recorder's crash path, end to end at the library level:
//! a contained toolchain panic must leave a well-formed `flight-dump/1`
//! file whose tail names the panicking stage, and the diagnostic log
//! stream must reference the dump — while the error message itself
//! (which feeds `Trace::first_error` and the journal) stays free of
//! scheduling-dependent dump paths.
//!
//! Everything lives in ONE test function: the dump directory and the
//! log dispatcher are process-wide, and separate `#[test]`s would race
//! on them.

use archex::{workloads, Explorer, FaultPlan, Stage, Strategy};
use obs::Json;
use std::sync::{Arc, Mutex};

/// A `Write` sink whose bytes stay readable through a shared handle.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Buf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8")
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

#[test]
fn contained_panic_writes_parseable_flight_dump_referenced_from_the_log() {
    let dir = std::env::temp_dir().join(format!("archex-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dump dir");
    obs::flight::set_dump_dir(Some(dir.clone()));
    let log = Buf::default();
    obs::log::init(obs::LogFilter::parse("warn").expect("filter"), Box::new(log.clone()));

    let start = isdl::load(isdl::samples::TOY).expect("TOY fixture loads");
    let kernels = vec![workloads::dot_product(3)];
    let dumps_before = obs::flight::dump_count();
    let trace = Explorer {
        max_steps: 4,
        strategy: Strategy::Greedy,
        threads: 2,
        fault_plan: Some(FaultPlan::panic_at(Stage::Simulate, 2)),
        ..Explorer::default()
    }
    .run(&start, &kernels)
    .expect("a single contained panic never fails the run");

    // The panic was contained, counted, and attributed.
    assert_eq!(trace.skipped_errors, 1);
    let first = trace.first_error.as_deref().expect("first error recorded");
    assert!(first.contains("toolchain panic"), "attributed: {first}");
    assert!(
        !first.contains("flight"),
        "dump references must stay out of journaled error messages: {first}"
    );
    assert!(trace.obs.flight_dumps >= 1, "the run counted its own dump");
    assert!(obs::flight::dump_count() > dumps_before);

    // Exactly the panic's dump file exists and is well-formed.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir readable")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one panic, one dump: {dumps:?}");
    let doc = Json::parse(&std::fs::read_to_string(&dumps[0]).expect("dump readable"))
        .expect("dump parses");
    assert_eq!(doc.get_str("schema"), Some(obs::flight::DUMP_SCHEMA));
    assert_eq!(doc.get_str("reason"), Some("toolchain_panic"));
    let events = doc.get("events").and_then(Json::as_arr).expect("events array");
    assert!(!events.is_empty());
    // The capturing thread's tail names the panicking stage: the hook's
    // own note is the last event on that thread's ring at dump time
    // (another worker's notes may land after it in the merged list).
    let shard = doc.get_u64("shard").expect("capturing shard recorded");
    let last = events
        .iter()
        .rev()
        .find(|e| e.get_u64("shard") == Some(shard))
        .expect("the capturing thread recorded events");
    assert_eq!(last.get_str("target"), Some("eval.panic"));
    assert_eq!(last.get_str("msg"), Some("simulate"));

    // The diagnostic log event references the dump by path.
    obs::log::flush();
    let dump_path = dumps[0].display().to_string();
    let diagnostic = log
        .text()
        .lines()
        .map(|l| Json::parse(l).expect("log line parses"))
        .find(|j| j.get_str("target") == Some("eval.panic"))
        .expect("eval.panic diagnostic logged");
    assert_eq!(diagnostic.get_str("schema"), Some(obs::log::LOG_SCHEMA));
    let fields = diagnostic.get("fields").expect("fields");
    assert_eq!(fields.get_str("stage"), Some("simulate"));
    let flight = fields.get_str("flight").expect("flight reference");
    assert!(flight.contains(&dump_path), "references the dump file: {flight}");

    obs::log::shutdown();
    obs::flight::set_dump_dir(None);
    std::fs::remove_dir_all(&dir).ok();
}

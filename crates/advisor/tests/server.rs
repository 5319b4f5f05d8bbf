//! Integration tests of the concurrent socket server: round-trip byte
//! identity against the direct API, malformed-line survival,
//! cross-client coalescing, store-backed zero-model-eval serving,
//! backpressure shedding, and arrival-anchored deadlines.
//!
//! Tests that install a telemetry recorder share one process-global
//! lock — the obs recorder slot is process-wide.

use advisor::{Advisor, AdvisorConfig, AnswerStore, Query, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn lock_obs() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn query_line(id: &str, stencil: &str, size: usize) -> String {
    format!(
        "{{\"id\": \"{id}\", \"device\": \"GTX 980\", \"stencil\": \"{stencil}\", \
         \"size\": [{size}, {size}], \"time\": 8}}"
    )
}

fn start_server(advisor: Advisor, cfg: ServerConfig) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    Server::start(Arc::new(advisor), listener, cfg).expect("server starts")
}

/// Send `lines` over one connection, shut down the write half, and
/// collect every response line.
fn roundtrip(server: &Server, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for line in lines {
        writeln!(stream, "{line}").expect("send");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("response line"))
        .collect()
}

#[test]
fn socket_answers_are_byte_identical_to_direct_advise() {
    let _g = lock_obs();
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let lines = [
        query_line("s1", "Heat2D", 96),
        query_line("s2", "Jacobi2D", 96),
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    assert_eq!(responses.len(), 2);

    let oracle = Advisor::with_defaults();
    for (line, response) in lines.iter().zip(&responses) {
        let q = Query::parse_line(line).unwrap();
        let direct = oracle.advise(&q).to_json_line();
        assert_eq!(*response, direct, "socket answer differs from direct API");
    }
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let _g = lock_obs();
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let lines = [
        "this is not json".to_string(),
        String::new(), // blank: ignored, no response slot
        query_line("ok", "Heat2D", 96),
        "{\"device\": \"no-such-gpu\", \"stencil\": \"Heat2D\", \"size\": [64, 64], \"time\": 8}"
            .to_string(),
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 3, "one response per non-blank line");
    assert!(responses[0].starts_with("{\"error\":"), "{}", responses[0]);
    assert!(responses[1].contains("\"id\":\"ok\""), "{}", responses[1]);
    assert!(
        responses[2].contains("unknown device preset"),
        "{}",
        responses[2]
    );
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.query_errors"), 2);
    assert_eq!(snap.counter("advisor.queries"), 1);
    assert_eq!(snap.counter("advisor.connections"), 1);
}

#[test]
fn malformed_inline_descriptors_error_without_dropping_the_connection() {
    let _g = lock_obs();
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    // An inline descriptor with the wrong coefficient count, then one
    // with an unknown footprint, then device overrides with zero SMs and
    // a zero warp size, then a well-formed inline star — proving the
    // connection survives descriptor and device validation failures.
    let bad_coeffs = "{\"id\": \"bc\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"broken\", \"dim\": 2, \"coefficients\": [0.25, 0.25]}, \
         \"size\": [96, 96], \"time\": 8}";
    let bad_footprint = "{\"id\": \"bf\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"hex\", \"dim\": 2, \"footprint\": \"hexagon\", \
          \"coefficients\": [0.2, 0.2, 0.2, 0.2, 0.2]}, \
         \"size\": [96, 96], \"time\": 8}";
    let zero_sm = "{\"id\": \"zs\", \"device\": {\"preset\": \"gtx980\", \"n_sm\": 0}, \
         \"stencil\": \"Heat2D\", \"size\": [96, 96], \"time\": 8}";
    let zero_warp = "{\"id\": \"zw\", \"device\": {\"preset\": \"gtx980\", \"warp_size\": 0}, \
         \"stencil\": \"Heat2D\", \"size\": [96, 96], \"time\": 8}";
    let good = "{\"id\": \"inl\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"mean5\", \"dim\": 2, \
          \"coefficients\": [0.2, 0.2, 0.2, 0.2, 0.2]}, \
         \"size\": [96, 96], \"time\": 8}";
    let lines = [
        bad_coeffs.to_string(),
        bad_footprint.to_string(),
        zero_sm.to_string(),
        zero_warp.to_string(),
        good.to_string(),
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 5, "one response per line");
    assert!(responses[0].starts_with("{\"error\":"), "{}", responses[0]);
    assert!(
        responses[0].contains("invalid stencil descriptor"),
        "{}",
        responses[0]
    );
    assert!(responses[1].starts_with("{\"error\":"), "{}", responses[1]);
    assert!(responses[1].contains("'star' or 'box'"), "{}", responses[1]);
    assert!(responses[2].starts_with("{\"error\":"), "{}", responses[2]);
    assert!(responses[2].contains("n_sm"), "{}", responses[2]);
    assert!(responses[3].starts_with("{\"error\":"), "{}", responses[3]);
    assert!(responses[3].contains("warp_size"), "{}", responses[3]);
    assert!(
        responses[4].contains("\"id\":\"inl\"") && responses[4].contains("\"candidates\":"),
        "valid inline descriptor answered after the errors: {}",
        responses[4]
    );
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.query_errors"), 4);
    assert_eq!(snap.counter("advisor.queries"), 1);
}

#[test]
fn coalesced_duplicates_are_byte_identical_and_computed_once() {
    let _g = lock_obs();
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    // One worker and a generous batch window: concurrent duplicates
    // land in one batch deterministically.
    let server = start_server(
        Advisor::with_defaults(),
        ServerConfig {
            workers: 1,
            batch_window: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                writeln!(stream, "{}", query_line(&format!("c{i}"), "Heat2D", 96)).unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
                line.trim_end().to_string()
            })
        })
        .collect();
    let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    server.shutdown();
    obs::uninstall();

    // Every client got its own id echoed on an otherwise byte-identical
    // answer — exactly what serial evaluation would have produced.
    let oracle = Advisor::with_defaults()
        .advise(&Query::parse_line(&query_line("c0", "Heat2D", 96)).unwrap())
        .to_json_line();
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(
            *r,
            oracle.replace("\"id\":\"c0\"", &format!("\"id\":\"c{i}\"")),
            "client {i}"
        );
    }
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.queries"), 1, "evaluated once");
    assert_eq!(snap.counter("advisor.coalesced"), 3, "three duplicates");
}

#[test]
fn store_hits_serve_with_zero_model_evaluations() {
    let _g = lock_obs();
    // Precompute the answers outside telemetry...
    let universe = [
        query_line("p1", "Heat2D", 96),
        query_line("p2", "Heat2D", 128),
    ];
    let queries: Vec<Query> = universe
        .iter()
        .map(|l| Query::parse_line(l).unwrap())
        .collect();
    let precomputer = Advisor::with_defaults();
    let mut store = AnswerStore::empty(0x5EED, 16);
    assert_eq!(store.precompute(&precomputer, &queries), 2);

    // ...then serve them from a fresh advisor whose only warm tier is
    // the store.
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(
        Advisor::new(AdvisorConfig {
            store: Some(Arc::new(store)),
            ..AdvisorConfig::default()
        }),
        ServerConfig::default(),
    );
    let responses = roundtrip(&server, &universe);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 2);
    for (line, response) in universe.iter().zip(&responses) {
        let direct = precomputer
            .advise(&Query::parse_line(line).unwrap())
            .to_json_line();
        assert_eq!(*response, direct, "store answer differs from computed");
    }
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.store_hits"), 2);
    assert_eq!(snap.counter("advisor.model_evals"), 0, "pure lookup");
    assert_eq!(snap.histogram("advisor.latency_ms.store").unwrap().count, 2);
}

#[test]
fn overload_sheds_with_an_explicit_response_instead_of_buffering() {
    let _g = lock_obs();
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    // A queue of 1 on one worker, and a per-connection cap of 2: a
    // burst of distinct (slow, cold) queries must shed most of itself.
    let server = start_server(
        Advisor::with_defaults(),
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            conn_queue_cap: 2,
            batch_window: Duration::ZERO,
            max_batch: 1,
        },
    );
    let lines: Vec<String> = (0..20)
        .map(|i| query_line(&format!("b{i}"), "Heat2D", 64 + 2 * i))
        .collect();
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 20, "every line gets exactly one response");
    let shed = responses
        .iter()
        .filter(|r| r.contains("\"error\":\"overloaded\""))
        .count();
    let answered = responses
        .iter()
        .filter(|r| r.contains("\"candidates\":"))
        .count();
    assert_eq!(shed + answered, 20);
    assert!(shed > 0, "burst over a queue of 1 must shed");
    assert!(answered > 0, "admitted queries still answered");
    // Shed responses carry the query's own id.
    let first_shed = responses
        .iter()
        .find(|r| r.contains("\"error\":\"overloaded\""))
        .unwrap();
    assert!(first_shed.contains("\"id\":\"b"), "{first_shed}");
    assert_eq!(snapshot_counter(&rec, "advisor.shed"), shed as u64);
}

fn snapshot_counter(rec: &obs::MemoryRecorder, name: &str) -> u64 {
    rec.snapshot().counter(name)
}

#[test]
fn deadline_is_anchored_at_arrival_so_queue_wait_degrades() {
    let _g = lock_obs();
    // timeout_ms 0 with validate: the deadline expires the moment the
    // line is parsed, so however fast the worker is, the answer must
    // degrade to the model-only ranking — never blow the budget.
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let line = "{\"id\": \"dl\", \"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \
                \"size\": [64, 64], \"time\": 8, \"validate\": true, \"timeout_ms\": 0}";
    let responses = roundtrip(&server, &[line.to_string()]);
    server.shutdown();
    assert_eq!(responses.len(), 1);
    assert!(
        responses[0].contains("\"degraded\":true"),
        "{}",
        responses[0]
    );
    assert!(
        responses[0].contains("\"candidates\":[{\"rank\":0"),
        "model ranking still served: {}",
        responses[0]
    );
}

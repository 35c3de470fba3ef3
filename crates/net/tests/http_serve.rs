//! Live loopback suite: a real listener, real sockets, real deadline and
//! admission behavior.
//!
//! Each test boots an [`HttpServer`] on an ephemeral port and drives it
//! with the crate's blocking [`Client`]. Wire answers are compared
//! bit-for-bit against in-process [`Engine::execute`] — the socket layer
//! must add framing, never change results.

use mips_core::engine::{Engine, EngineBuilder, QueryRequest};
use mips_core::serve::{MipsServer, ServerBuilder};
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_net::client::Client;
use mips_net::json::{self, Json};
use mips_net::{HttpServer, HttpServerBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model(users: usize, items: usize, seed: u64) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: items,
        num_factors: 8,
        seed,
        ..SynthConfig::default()
    }))
}

fn engine(model: &Arc<MfModel>) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(model))
            .with_default_backends()
            .build()
            .unwrap(),
    )
}

/// A small default stack: 80 users, 100 items, 2 shards, 2 workers.
fn stack() -> (Arc<Engine>, Arc<MipsServer>, HttpServer) {
    let engine = engine(&model(80, 100, 11));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(2)
            .workers(2)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    (engine, server, http)
}

/// Extracts `results` from a wire response as `(items, score_bits)` rows.
fn wire_results(body: &str) -> Vec<(Vec<u32>, Vec<u64>)> {
    let doc = json::parse(body).unwrap();
    doc.get("results")
        .and_then(Json::as_arr)
        .expect("results array")
        .iter()
        .map(|row| {
            let items = row
                .get("items")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|i| i.as_u64().unwrap() as u32)
                .collect();
            let scores = row
                .get("scores")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|s| s.as_num().unwrap().to_bits())
                .collect();
            (items, scores)
        })
        .collect()
}

#[test]
fn wire_queries_are_bit_identical_to_in_process_execution() {
    let (engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    let cases = [
        (
            "{\"k\": 5, \"users\": [3, 0, 9, 3]}",
            QueryRequest::top_k(5).users(vec![3, 0, 9, 3]),
        ),
        ("{\"k\": 1}", QueryRequest::top_k(1)),
        (
            "{\"k\": 4, \"users\": {\"range\": [10, 30]}}",
            QueryRequest::top_k(4).users_range(10..30),
        ),
        (
            "{\"k\": 3, \"users\": [2], \"exclude\": {\"2\": [0, 1, 2, 3]}}",
            QueryRequest::top_k(3).users(vec![2]).exclude(
                mips_core::engine::ExclusionSet::from_pairs((0..4).map(|i| (2usize, i as u32))),
            ),
        ),
    ];
    for (wire, request) in cases {
        let response = client.request("POST", "/query", Some(wire)).unwrap();
        assert_eq!(response.status, 200, "{wire}: {}", response.body);
        let expected = engine.execute(&request).unwrap();
        let got = wire_results(&response.body);
        assert_eq!(got.len(), expected.results.len(), "{wire}");
        for (row, want) in got.iter().zip(&expected.results) {
            assert_eq!(row.0, want.items, "{wire}");
            let want_bits: Vec<u64> = want.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(
                row.1, want_bits,
                "{wire}: scores must survive the wire exactly"
            );
        }
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(
            doc.get("epoch").and_then(Json::as_u64),
            Some(expected.epoch)
        );
        assert!(doc.get("backend").and_then(Json::as_str).is_some());
        // The default stack runs pure f64; the wire must say so.
        assert_eq!(
            doc.get("precision").and_then(Json::as_str),
            Some("f64"),
            "{wire}"
        );
    }
    http.shutdown().unwrap();
}

#[test]
fn vector_queries_serve_both_encodings_bit_identically() {
    let (engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();

    // Dense payload = a stored user row: the wire answer must match
    // serving that user through the batch path, bit for bit.
    let row: Vec<f64> = engine.model().users().row(3).to_vec();
    let dense_body = format!(
        "{{\"k\": 5, \"vector\": [{}]}}",
        row.iter()
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let response = client
        .request("POST", "/vector-query", Some(&dense_body))
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let expected = engine
        .execute_with("bmm", &QueryRequest::top_k(5).users(vec![3]))
        .unwrap();
    let got = wire_results(&response.body);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, expected.results[0].items);
    let want_bits: Vec<u64> = expected.results[0]
        .scores
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_eq!(got[0].1, want_bits, "scores must survive the wire exactly");
    let doc = json::parse(&response.body).unwrap();
    // The default stack registers the sparse backend, which owns the
    // point-lookup path.
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some("Sparse-II"));

    // A sparse payload and its densified twin answer identically.
    let sparse_body =
        "{\"k\": 3, \"vector\": {\"dim\": 8, \"indices\": [1, 6], \"values\": [0.75, -1.25]}}";
    let dense_twin = "{\"k\": 3, \"vector\": [0, 0.75, 0, 0, 0, 0, -1.25, 0]}";
    let via_sparse = client
        .request("POST", "/vector-query", Some(sparse_body))
        .unwrap();
    let via_dense = client
        .request("POST", "/vector-query", Some(dense_twin))
        .unwrap();
    assert_eq!(via_sparse.status, 200, "{}", via_sparse.body);
    assert_eq!(via_dense.status, 200, "{}", via_dense.body);
    assert_eq!(
        wire_results(&via_sparse.body),
        wire_results(&via_dense.body),
        "sparse and dense encodings must be interchangeable on the wire"
    );

    // Typed errors reach the wire with their statuses.
    let cases = [
        ("{\"k\": 0, \"vector\": [0]}", "invalid k"),
        ("{\"k\": 1, \"vector\": [1, 2]}", "invalid query vector"),
        (
            "{\"k\": 1, \"vector\": {\"dim\": 8, \"indices\": [3, 1], \"values\": [1, 1]}}",
            "invalid sparse vector",
        ),
    ];
    for (body, fragment) in cases {
        let response = client.request("POST", "/vector-query", Some(body)).unwrap();
        assert_eq!(response.status, 400, "{body}: {}", response.body);
        let doc = json::parse(&response.body).unwrap();
        let message = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(fragment),
            "{body}: {message:?} should mention {fragment:?}"
        );
    }
    let wrong_method = client.request("GET", "/vector-query", None).unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
    http.shutdown().unwrap();
}

#[test]
fn forced_i8_rescore_is_bit_identical_and_announced_on_the_wire() {
    // A screened stack must change how answers are computed — integer
    // screen, exact f64 rescore — without changing a single reported bit,
    // and /metrics must attribute batches and screen candidate/survivor
    // counts to the i8 lanes. The engine is
    // pinned to BMM — with the full registry, OPTIMUS may legitimately
    // hand a forced-i8 plan to a screenless backend (which serves
    // f64-direct), and this test is about the i8 lanes, not the planner.
    let model = model(80, 100, 11);
    let f64_engine = engine(&model);
    let registry = mips_core::engine::BackendRegistry::with_defaults();
    let bmm = registry
        .factories()
        .iter()
        .find(|f| f.key() == "bmm")
        .expect("bmm is a default backend");
    let i8_engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&model))
            .register_arc(Arc::clone(bmm))
            .precision(mips_core::precision::Precision::I8Rescore)
            .build()
            .unwrap(),
    );
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&i8_engine))
            .shards(2)
            .workers(2)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    let mut client = Client::connect(http.local_addr()).unwrap();

    let wire = "{\"k\": 5, \"users\": [3, 0, 9, 3]}";
    let response = client.request("POST", "/query", Some(wire)).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = json::parse(&response.body).unwrap();
    assert_eq!(
        doc.get("precision").and_then(Json::as_str),
        Some("i8-rescore"),
        "the response must carry the serving plan's precision"
    );
    let expected = f64_engine
        .execute(&QueryRequest::top_k(5).users(vec![3, 0, 9, 3]))
        .unwrap();
    let got = wire_results(&response.body);
    for (row, want) in got.iter().zip(&expected.results) {
        assert_eq!(row.0, want.items);
        let want_bits: Vec<u64> = want.scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(row.1, want_bits, "i8-rescore must not move a single bit");
    }

    let metrics = client.request("GET", "/metrics", None).unwrap();
    let doc = json::parse(&metrics.body).unwrap();
    let server_side = doc.get("server").expect("server section");
    assert_eq!(
        server_side.get("precision").and_then(Json::as_str),
        Some("i8-rescore")
    );
    assert!(
        server_side
            .get("i8_batches")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "served batches must be attributed to the i8 screen path"
    );
    let candidates = server_side
        .get("screen_candidates_i8")
        .and_then(Json::as_u64)
        .unwrap();
    let survivors = server_side
        .get("screen_survivors_i8")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        candidates >= 1,
        "the i8 screen must report evaluated scores"
    );
    assert!(survivors <= candidates);
    http.shutdown().unwrap();
}

#[test]
fn metrics_and_healthz_expose_the_rollup() {
    let (_engine, server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    for _ in 0..3 {
        let r = client
            .request("POST", "/query", Some("{\"k\": 2, \"users\": [1]}"))
            .unwrap();
        assert_eq!(r.status, 200);
    }
    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let doc = json::parse(&health.body).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(0));

    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let doc = json::parse(&metrics.body).unwrap();
    let server_side = doc.get("server").expect("server section");
    assert_eq!(server_side.get("completed").and_then(Json::as_u64), Some(3));
    assert_eq!(
        server_side.get("index_scope").and_then(Json::as_str),
        Some("global")
    );
    assert!(server_side.get("shards").and_then(Json::as_arr).is_some());
    let net_side = doc.get("net").expect("net section");
    // The /metrics request itself is parsed before its response counts.
    assert!(
        net_side
            .get("http_requests")
            .and_then(Json::as_u64)
            .unwrap()
            >= 5
    );
    assert!(
        net_side
            .get("responses_2xx")
            .and_then(Json::as_u64)
            .unwrap()
            >= 4
    );
    assert_eq!(net_side.get("accepted").and_then(Json::as_u64), Some(1));

    // The in-process snapshot agrees with the wire counters.
    assert_eq!(server.metrics().completed, 3);
    assert!(http.metrics().http_requests >= 5);
    http.shutdown().unwrap();
}

#[test]
fn typed_errors_map_to_their_statuses_on_the_wire() {
    let (_engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    // (body, expected status, fragment of the error message)
    let cases = [
        ("{\"k\": 0}", 400, "invalid k"),
        ("{\"k\": 101}", 400, "invalid k"),
        ("{\"k\": 1, \"users\": [80]}", 400, "out of range"),
        ("{\"k\": 1, \"users\": []}", 400, "no users"),
        (
            "{\"k\": 1, \"exclude\": {\"0\": [100]}}",
            400,
            "out of range",
        ),
        ("{\"k\": 1, \"typo\": 1}", 400, "unknown field"),
        ("not json at all", 400, "invalid literal"),
        ("{\"k\": 1", 400, "expected ','"),
    ];
    for (body, status, fragment) in cases {
        let response = client.request("POST", "/query", Some(body)).unwrap();
        assert_eq!(response.status, status, "{body}: {}", response.body);
        let doc = json::parse(&response.body).unwrap();
        let message = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(fragment),
            "{body}: {message:?} should mention {fragment:?}"
        );
        assert_eq!(
            doc.get("status").and_then(Json::as_u64),
            Some(status as u64)
        );
    }
    // Routing errors.
    let missing = client.request("GET", "/nope", None).unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client.request("DELETE", "/query", Some("{}")).unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
    let wrong_get = client.request("POST", "/metrics", None).unwrap();
    assert_eq!(wrong_get.status, 405);
    assert_eq!(wrong_get.header("allow"), Some("GET"));
    // Swap without a configured source is 501, not a crash.
    let swap = client.request("POST", "/admin/swap", None).unwrap();
    assert_eq!(swap.status, 501);
    http.shutdown().unwrap();
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    let depth = 12;
    for i in 0..depth {
        client
            .send(
                "POST",
                "/query",
                Some(&format!(
                    "{{\"k\": {}, \"users\": [{}]}}",
                    i % 7 + 1,
                    i % 80
                )),
            )
            .unwrap();
    }
    for i in 0..depth {
        let response = client.recv().unwrap();
        assert_eq!(response.status, 200, "request {i}");
        let expected = engine
            .execute(&QueryRequest::top_k(i % 7 + 1).users(vec![i % 80]))
            .unwrap();
        let got = wire_results(&response.body);
        assert_eq!(
            got[0].0, expected.results[0].items,
            "request {i} out of order"
        );
    }
    http.shutdown().unwrap();
}

#[test]
fn pipelined_burst_past_the_pipeline_cap_is_answered_in_full() {
    // More requests in one write than a connection keeps in flight: the
    // ones buffered past the cap must be parsed as slots free up, without
    // waiting for bytes the client will never send. A short idle deadline
    // turns a stall into a prompt close instead of a long hang.
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine(&model(40, 50, 3)))
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(server)
        .idle_timeout(Duration::from_millis(500))
        .build()
        .unwrap();
    let mut client = Client::connect(http.local_addr()).unwrap();
    let burst = 100;
    client
        .send_raw(&b"GET /healthz HTTP/1.1\r\n\r\n".repeat(burst))
        .unwrap();
    for i in 0..burst {
        let response = client
            .recv()
            .unwrap_or_else(|e| panic!("response {i} of {burst}: {e}"));
        assert_eq!(response.status, 200, "request {i}");
    }
    http.shutdown().unwrap();
}

#[test]
fn malformed_http_is_refused_and_the_connection_condemned() {
    let (_engine, _server, http) = stack();
    // Garbage head.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client.send_raw(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let response = client.recv().unwrap();
    assert_eq!(response.status, 400);
    assert!(client.recv().is_err(), "connection must close after a 400");

    // Oversized declared body: refused from the header alone.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    assert_eq!(client.recv().unwrap().status, 413);

    // Chunked encoding: explicit 501.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    assert_eq!(client.recv().unwrap().status, 501);

    // EOF mid-request: 400, then close.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-")
        .unwrap();
    client.finish_writes().unwrap();
    assert_eq!(client.recv().unwrap().status, 400);
    assert!(client.recv().is_err());

    let net = http.metrics();
    assert!(net.parse_errors >= 4, "{net:?}");
    http.shutdown().unwrap();
}

#[test]
fn read_deadline_answers_408_for_stalled_requests() {
    let engine = engine(&model(40, 50, 3));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(server)
        .read_timeout(Duration::from_millis(80))
        .build()
        .unwrap();
    let mut client = Client::connect(http.local_addr()).unwrap();
    // A head that never finishes.
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"k")
        .unwrap();
    let started = Instant::now();
    let response = client.recv().unwrap();
    assert_eq!(response.status, 408);
    assert!(
        started.elapsed() >= Duration::from_millis(60),
        "the deadline must actually elapse"
    );
    assert!(client.recv().is_err(), "connection closes after the 408");
    assert!(http.metrics().timeouts >= 1);
    http.shutdown().unwrap();
}

#[test]
fn overload_answers_429_with_retry_after() {
    // One worker, a queue of two sub-requests, and a model big enough
    // that an all-users request holds the worker for a while.
    let engine = engine(&model(1200, 900, 5));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(1)
            .workers(1)
            .queue_capacity(2)
            .batching(false)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    // Occupy the worker and fill the queue from in-process submissions.
    let busy = server.submit(&QueryRequest::top_k(200)).unwrap();
    let queued_a = server.submit(&QueryRequest::top_k(200)).unwrap();
    let queued_b = server.submit(&QueryRequest::top_k(200)).unwrap();
    // The wire sees backpressure, not a blocking submit.
    let mut client = Client::connect(http.local_addr()).unwrap();
    let response = client
        .request("POST", "/query", Some("{\"k\": 1, \"users\": [0]}"))
        .unwrap();
    assert_eq!(response.status, 429, "{}", response.body);
    assert_eq!(response.header("retry-after"), Some("1"));
    let doc = json::parse(&response.body).unwrap();
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("overloaded"));
    // The refused request is visible in both metric rollups.
    assert!(http.metrics().rejected_overload >= 1);
    assert!(server.metrics().rejected >= 1);
    busy.wait().unwrap();
    queued_a.wait().unwrap();
    queued_b.wait().unwrap();
    // With the queue drained the same query is admitted.
    let response = client
        .request("POST", "/query", Some("{\"k\": 1, \"users\": [0]}"))
        .unwrap();
    assert_eq!(response.status, 200);
    http.shutdown().unwrap();
}

#[test]
fn connection_limit_sheds_with_503() {
    let (_engine, _server, http) = {
        let engine = engine(&model(40, 50, 7));
        let server = Arc::new(
            ServerBuilder::new()
                .engine(Arc::clone(&engine))
                .workers(1)
                .build()
                .unwrap(),
        );
        let http = HttpServerBuilder::new()
            .server(Arc::clone(&server))
            .max_connections(1)
            .build()
            .unwrap();
        (engine, server, http)
    };
    let mut first = Client::connect(http.local_addr()).unwrap();
    // Complete a request so the connection is registered before the next
    // connect races the accept loop.
    assert_eq!(first.request("GET", "/healthz", None).unwrap().status, 200);
    let mut second = Client::connect(http.local_addr()).unwrap();
    let shed = second.request("GET", "/healthz", None).unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    // The first connection keeps serving.
    assert_eq!(first.request("GET", "/healthz", None).unwrap().status, 200);
    assert!(http.metrics().shed >= 1);
    http.shutdown().unwrap();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let engine = engine(&model(900, 800, 9));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .shards(1)
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    let addr = http.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // A query that takes a macroscopic moment, in flight when shutdown
    // lands. The reader runs concurrently: draining a response larger
    // than the socket buffers requires a live reader on the other end.
    client.send("POST", "/query", Some("{\"k\": 400}")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let reader = std::thread::spawn(move || {
        let response = client.recv().unwrap();
        (response, client)
    });
    let net = http.shutdown().unwrap();
    // Drained, not dropped: the response was written before close.
    let (response, _client) = reader.join().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(wire_results(&response.body).len(), 900);
    assert_eq!(net.responses_2xx, 1);
    // The listener is gone: new connections are refused.
    assert!(Client::connect(addr).is_err());
}

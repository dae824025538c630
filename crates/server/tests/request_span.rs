//! A request's spans form one tree: the `request` span opened on the
//! connection thread is the parent of the statement it ran. In a binary of
//! its own, because the span sink is process-global.

use pbserver::{Server, ServerConfig};
use sqldb::Engine;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn a_query_span_nests_under_its_request_span() {
    let engine = Arc::new(Engine::new());
    engine
        .execute("CREATE TABLE runs (run_index INTEGER)")
        .unwrap();
    let trace = obs::TraceCollector::new();
    obs::set_sink(Some(trace.clone()));
    let handle = Server::start(engine, ServerConfig::default()).unwrap();

    let sql = "SELECT count(*) FROM runs";
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let req = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{sql}",
        sql.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    handle.stop();
    handle.join();
    obs::set_sink(None);

    let records = trace.records();
    let request = records
        .iter()
        .find(|r| r.name == "request")
        .expect("a request span");
    assert_eq!(request.detail, "POST /query 200");
    let query = records
        .iter()
        .find(|r| r.name == "query")
        .expect("a query span");
    assert_eq!(query.parent, Some(request.id), "{}", trace.render());
}

//! Requests built to hurt the server rather than to be answered, sent
//! over a real socket: none may take the process, a worker or the
//! connection with it.

use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use topomap_lb::LbDatabase;
use topomap_serve::client::Client;
use topomap_serve::proto::{
    decode_response, encode_request, read_frame, write_frame, ErrorKind, MapRequest, Request,
    Response, PROTO_VERSION,
};
use topomap_serve::server::{spawn_ephemeral, ServeConfig};
use topomap_serve::specs::parse_pattern;

fn stencil_request(id: u64) -> MapRequest {
    let g = parse_pattern("stencil2d:4x4", 1024.0, 1).unwrap();
    MapRequest {
        id,
        topology: "torus:4x4".to_string(),
        mapper: "topolb".to_string(),
        init: None,
        fast_lane: None,
        hierarchy: None,
        hier_dist: None,
        seed: 1,
        deadline_ms: None,
        database: LbDatabase::from_task_graph(&g),
    }
}

#[test]
fn megabyte_of_open_brackets_is_a_bad_request_and_the_connection_lives() {
    let server = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();

    // One parser recursion per bracket: unbounded, this overflows the
    // handler thread's stack and aborts the whole process.
    write_frame(&mut sock, &vec![b'['; 1 << 20]).unwrap();
    let answer = read_frame(&mut sock).unwrap().expect("server answered");
    match decode_response(&answer).unwrap() {
        Response::Error { id, kind, message } => {
            assert_eq!((id, kind), (0, ErrorKind::BadRequest), "{message}");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Same connection, next frame.
    write_frame(&mut sock, &encode_request(&Request::Ping)).unwrap();
    let answer = read_frame(&mut sock).unwrap().expect("still open");
    match decode_response(&answer).unwrap() {
        Response::Pong { version, .. } => assert_eq!(version, PROTO_VERSION),
        other => panic!("expected Pong, got {other:?}"),
    }
    drop(sock);
    server.join();
}

#[test]
fn impossible_machine_is_a_bad_spec_and_the_next_map_succeeds() {
    let server = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.addr().to_string()).unwrap();

    // A zero-node ring must be refused before its constructor asserts: a
    // panic under the oracle cache's lock would fail every later request
    // on every machine. A million-node torus must be refused before its
    // 4 TiB distance matrix is allocated: that failure aborts the process.
    for (id, spec, needle) in [(1, "ring:0", "ring size"), (3, "torus:1024x1024", "16384")] {
        let mut req = stencil_request(id);
        req.topology = spec.to_string();
        match client.map(req).unwrap() {
            Response::Error {
                id: got,
                kind,
                message,
            } => {
                assert_eq!((got, kind), (id, ErrorKind::BadSpec), "{message}");
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected BadSpec, got {other:?}"),
        }
    }
    assert_eq!(client.ping().unwrap(), PROTO_VERSION);

    match client.map(stencil_request(2)).unwrap() {
        Response::MapOk { id, .. } => assert_eq!(id, 2),
        other => panic!("expected MapOk, got {other:?}"),
    }
    drop(client);
    server.join();
}

#[test]
fn bad_coords_are_a_bad_workload_and_cost_no_worker() {
    let workers = 2;
    let server = spawn_ephemeral(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();

    // One more poison request than there are workers: were each to kill
    // the worker that ran it, nobody would be left for the good one.
    for i in 0..=workers as u64 {
        let mut req = stencil_request(i);
        let short = i % 2 == 0;
        req.database.coords = Some(if short {
            vec![[0.0; 3]; 15] // one fewer than the 16 loads
        } else {
            let mut coords = vec![[0.0; 3]; 16];
            coords[9][1] = 12345.5;
            coords
        });
        // A non-finite float has no JSON rendering of its own, but an
        // overflowing literal parses to one.
        let payload = String::from_utf8(encode_request(&Request::Map { req })).unwrap();
        let payload = payload.replace("12345.5", "1e999");
        write_frame(&mut sock, payload.as_bytes()).unwrap();
        let answer = read_frame(&mut sock).unwrap().expect("server answered");
        match decode_response(&answer).unwrap() {
            Response::Error { id, kind, message } => {
                assert_eq!((id, kind), (i, ErrorKind::BadWorkload), "{message}");
                let names_the_defect = if short {
                    message.contains("15") && message.contains("16")
                } else {
                    message.contains("object 9")
                };
                assert!(names_the_defect, "{message}");
            }
            other => panic!("request {i}: expected BadWorkload, got {other:?}"),
        }
    }

    let addr = server.addr().to_string();
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let mut client = Client::connect_tcp(addr).unwrap();
        let _ = done_tx.send(client.map(stencil_request(99)));
    });
    match done_rx.recv_timeout(Duration::from_secs(2)) {
        Ok(Ok(Response::MapOk { id, .. })) => assert_eq!(id, 99),
        Ok(other) => panic!("expected MapOk, got {other:?}"),
        Err(_) => panic!("no worker left to answer a good request"),
    }

    drop(sock);
    let stats = server.join();
    let poison = workers as u64 + 1;
    assert_eq!(
        (stats.requests, stats.errors, stats.ok),
        (poison + 1, poison, 1)
    );
}

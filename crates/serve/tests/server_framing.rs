//! What a connection handler owes a slow client and a stopping server,
//! checked at the socket: frames that arrive in pieces still frame, and
//! a stop wakes idle workers while idle connections neither delay the
//! drain nor get a job in afterwards.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use topomap_lb::LbDatabase;
use topomap_serve::client::Client;
use topomap_serve::proto::{
    decode_response, encode_request, read_frame, ErrorKind, MapRequest, Request, Response,
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
fn frame_written_in_three_slow_chunks_is_answered() {
    let server = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();

    let payload = encode_request(&Request::Map {
        req: stencil_request(7),
    });
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // Split inside the length prefix and inside the payload.
    let (a, rest) = frame.split_at(2);
    let (b, c) = rest.split_at(rest.len() / 2);
    for chunk in [a, b, c] {
        sock.write_all(chunk).unwrap();
        sock.flush().unwrap();
        thread::sleep(Duration::from_millis(40));
    }

    let answer = read_frame(&mut sock).unwrap().expect("server answered");
    match decode_response(&answer).unwrap() {
        Response::MapOk {
            id, proc_of_task, ..
        } => {
            assert_eq!(id, 7);
            assert_eq!(proc_of_task.len(), 16);
        }
        other => panic!("expected MapOk, got {other:?}"),
    }
    drop(sock);
    let stats = server.join();
    assert_eq!((stats.requests, stats.ok), (1, 1));
}

#[test]
fn stop_with_idle_client_and_idle_workers_joins_promptly() {
    // Workers block in `Condvar::wait` with no timer and the handler
    // blocks in `read`: only the stop's own notification ends the former,
    // and nothing may wait for the latter. (The lost wake-up itself — a
    // worker between its flag check and its wait — cannot be forced from
    // outside the crate; `Shared::request_stop` closes it by construction.)
    for round in 0..10 {
        let server = spawn_ephemeral(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut idle = Client::connect_tcp(server.addr()).unwrap();
        idle.ping().unwrap();

        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            server.stop();
            let _ = done_tx.send(server.join());
        });
        let stats = done_rx
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("round {round}: join() hung on an idle server"));
        assert_eq!(stats.requests, 0);

        // The connection outlived the drain; it must not get a job in.
        match idle.map(stencil_request(1)) {
            Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
            Ok(other) => panic!("round {round}: job accepted after the drain: {other:?}"),
            Err(_) => {} // closed connection
        }
    }
}

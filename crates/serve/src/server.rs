//! The TCP server and client for the serving layer.
//!
//! One accept loop, one session thread per connection, all sessions
//! sharing a single [`QueryService`] (and therefore one fair-share
//! scheduler and one admission controller). Each connection additionally
//! gets a reader thread so a client that disconnects **mid-query** trips
//! the running query's [`CancelToken`]; the gate aborts at the next batch
//! boundary and the scheduler/admission cleanup runs as on any other
//! error path — the credit ledger stays balanced.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use df_data::Batch;

use crate::dispatch::{CancelToken, QueryService};
use crate::protocol::{encode_result, read_frame, write_frame, Frame};
use crate::tenant::TenantSpec;
use crate::{Result, ServeError};

/// Rows per streamed [`Frame::Batch`]; results larger than this arrive in
/// several frames so mid-stream disconnects are observable.
pub const STREAM_CHUNK_ROWS: usize = 1024;

/// Handle to a running server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (ephemeral port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop. Sessions in
    /// flight finish their current exchange.
    pub fn shutdown(mut self) {
        self.stop_accept_loop();
    }

    fn stop_accept_loop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accept_loop();
        }
    }
}

/// Start serving `service` on `127.0.0.1:<port>` (0 = ephemeral). Returns
/// once the listener is bound; connections are handled on background
/// threads.
pub fn serve(service: Arc<QueryService>, port: u16) -> Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = service.clone();
            std::thread::spawn(move || {
                let _ = handle_connection(stream, service);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
    })
}

/// Turn off Nagle's algorithm on a session socket. Every frame is one
/// write, so nothing is gained by coalescing, and a small reply held back
/// until the peer's delayed ACK stalls the query by tens of milliseconds.
fn no_delay(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

/// One session: Hello handshake, then a query loop until Bye/disconnect.
fn handle_connection(stream: TcpStream, service: Arc<QueryService>) -> Result<()> {
    no_delay(&stream)?;
    let mut writer = stream.try_clone()?;
    let reader_stream = stream.try_clone()?;
    // The cancel token of the query currently executing on this session,
    // tripped by the reader thread when the peer goes away.
    let current: Arc<Mutex<Option<CancelToken>>> = Arc::new(Mutex::new(None));
    let current_reader = current.clone();
    let (tx, rx) = mpsc::channel::<Frame>();
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(reader_stream);
        loop {
            match read_frame(&mut r) {
                Ok(frame) => {
                    let done = matches!(frame, Frame::Bye);
                    if tx.send(frame).is_err() || done {
                        break;
                    }
                }
                Err(_) => {
                    if let Some(cancel) = current_reader.lock().expect("cancel lock").as_ref() {
                        cancel.cancel();
                    }
                    break;
                }
            }
        }
    });

    let outcome = session_loop(&mut writer, &rx, &current, &service);
    drop(rx); // unblocks the reader's send if it is mid-frame
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();
    outcome
}

fn session_loop(
    writer: &mut TcpStream,
    rx: &mpsc::Receiver<Frame>,
    current: &Arc<Mutex<Option<CancelToken>>>,
    service: &Arc<QueryService>,
) -> Result<()> {
    let tenant = match rx.recv() {
        Ok(Frame::Hello {
            tenant,
            weight,
            priority,
        }) => {
            let spec = TenantSpec::new(tenant, weight).with_priority(priority);
            let id = service.register_tenant(spec);
            write_frame(writer, &Frame::HelloOk)?;
            id
        }
        Ok(other) => {
            let msg = format!("expected Hello, got {other:?}");
            let _ = write_frame(writer, &Frame::Error(msg.clone()));
            return Err(ServeError::Protocol(msg));
        }
        Err(_) => return Err(ServeError::Disconnected),
    };

    loop {
        let frame = match rx.recv() {
            Ok(f) => f,
            Err(_) => return Err(ServeError::Disconnected),
        };
        match frame {
            Frame::Query { sql } => {
                let cancel = CancelToken::new();
                *current.lock().expect("cancel lock") = Some(cancel.clone());
                let ran = service.run_sql(tenant, &sql, cancel);
                *current.lock().expect("cancel lock") = None;
                match ran {
                    Ok(outcome) => {
                        stream_result(writer, &outcome.result.batch, outcome.credits)?;
                    }
                    Err(ServeError::Rejected(msg)) | Err(ServeError::PlanRejected(msg)) => {
                        write_frame(writer, &Frame::Rejected(msg))?;
                    }
                    Err(ServeError::Disconnected) => return Err(ServeError::Disconnected),
                    Err(e) => {
                        write_frame(writer, &Frame::Error(e.to_string()))?;
                    }
                }
            }
            Frame::Bye => {
                let _ = write_frame(writer, &Frame::Bye);
                return Ok(());
            }
            other => {
                let msg = format!("unexpected frame {other:?}");
                let _ = write_frame(writer, &Frame::Error(msg.clone()));
                return Err(ServeError::Protocol(msg));
            }
        }
    }
}

/// Stream a result batch in [`STREAM_CHUNK_ROWS`]-row frames, then `Done`.
fn stream_result(writer: &mut TcpStream, batch: &Batch, credits: u64) -> Result<()> {
    let rows = batch.rows();
    let mut at = 0usize;
    while at < rows {
        let n = STREAM_CHUNK_ROWS.min(rows - at);
        let chunk = batch.slice(at, n);
        write_frame(writer, &Frame::Batch(encode_result(&chunk)))?;
        at += n;
    }
    write_frame(
        writer,
        &Frame::Done {
            rows: rows as u64,
            credits,
        },
    )
}

/// A result the client assembled from one query exchange.
#[derive(Debug)]
pub struct QueryReply {
    /// The streamed batches, in arrival order.
    pub batches: Vec<Batch>,
    /// Total rows the server reported in `Done`.
    pub rows: u64,
    /// Scheduler credits the query consumed.
    pub credits: u64,
}

impl QueryReply {
    /// All batches concatenated (empty-schema batch when none arrived).
    pub fn batch(&self) -> Option<Batch> {
        if self.batches.is_empty() {
            None
        } else {
            Batch::concat(&self.batches).ok()
        }
    }
}

/// A blocking protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect and perform the Hello handshake.
    pub fn connect(addr: SocketAddr, spec: &TenantSpec) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        no_delay(&stream)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        write_frame(
            &mut client.writer,
            &Frame::Hello {
                tenant: spec.name.clone(),
                weight: spec.weight,
                priority: spec.priority,
            },
        )?;
        match read_frame(&mut client.reader)? {
            Frame::HelloOk => Ok(client),
            other => Err(ServeError::Protocol(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// Run one query, collecting all streamed batches.
    pub fn query(&mut self, sql: &str) -> Result<QueryReply> {
        write_frame(&mut self.writer, &Frame::Query { sql: sql.into() })?;
        let mut batches = Vec::new();
        loop {
            match read_frame(&mut self.reader)? {
                Frame::Batch(bytes) => batches.push(crate::protocol::decode_result(&bytes)?),
                Frame::Done { rows, credits } => {
                    return Ok(QueryReply {
                        batches,
                        rows,
                        credits,
                    })
                }
                Frame::Rejected(msg) => return Err(ServeError::Rejected(msg)),
                Frame::Error(msg) => return Err(ServeError::Remote(msg)),
                other => return Err(ServeError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Close the session politely.
    pub fn bye(mut self) -> Result<()> {
        write_frame(&mut self.writer, &Frame::Bye)?;
        match read_frame(&mut self.reader) {
            Ok(Frame::Bye) | Err(ServeError::Disconnected) => Ok(()),
            Ok(other) => Err(ServeError::Protocol(format!("expected Bye, got {other:?}"))),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ServiceConfig;
    use df_core::session::Session;
    use df_data::batch::batch_of;
    use df_data::{Column, Scalar};

    #[test]
    fn session_sockets_disable_nagle() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        for stream in [&client, &server] {
            no_delay(stream).unwrap();
            assert!(stream.nodelay().unwrap());
            // The session's reader and writer clones share the option.
            assert!(stream.try_clone().unwrap().nodelay().unwrap());
        }
    }

    fn service() -> Arc<QueryService> {
        let session = Session::in_memory().unwrap();
        session
            .create_table(
                "orders",
                &[batch_of(vec![
                    ("id", Column::from_i64((0..3000).collect())),
                    (
                        "amount",
                        Column::from_f64((0..3000).map(|i| (i % 90) as f64).collect()),
                    ),
                ])],
            )
            .unwrap();
        Arc::new(QueryService::new(session, ServiceConfig::default()))
    }

    #[test]
    fn two_concurrent_clients_get_correct_results() {
        let handle = serve(service(), 0).unwrap();
        let addr = handle.addr();
        let spawn = |name: &str, weight: u32| {
            let name = name.to_string();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, &TenantSpec::new(name, weight)).unwrap();
                let reply = c
                    .query("SELECT COUNT(*) AS n FROM orders WHERE amount > 10.0")
                    .unwrap();
                let batch = reply.batch().expect("one batch");
                assert!(reply.credits > 0);
                c.bye().unwrap();
                batch.row(0)[0].clone()
            })
        };
        let a = spawn("alice", 1);
        let b = spawn("bob", 4);
        let va = a.join().unwrap();
        let vb = b.join().unwrap();
        assert_eq!(va, vb);
        // amount = id % 90; 79 of every 90 rows exceed 10, plus 19 of the
        // trailing partial cycle of 30.
        assert_eq!(va, Scalar::Int(33 * 79 + 19));
        handle.shutdown();
    }

    #[test]
    fn large_results_stream_in_chunks() {
        let handle = serve(service(), 0).unwrap();
        let mut c = Client::connect(handle.addr(), &TenantSpec::new("bulk", 1)).unwrap();
        let reply = c.query("SELECT id FROM orders").unwrap();
        assert_eq!(reply.rows, 3000);
        assert!(
            reply.batches.len() >= 2,
            "3000 rows must span several {STREAM_CHUNK_ROWS}-row frames"
        );
        c.bye().unwrap();
        handle.shutdown();
    }

    #[test]
    fn bad_sql_reports_error_and_session_survives() {
        let handle = serve(service(), 0).unwrap();
        let mut c = Client::connect(handle.addr(), &TenantSpec::new("erin", 1)).unwrap();
        assert!(matches!(c.query("SELEKT"), Err(ServeError::Remote(_))));
        let reply = c.query("SELECT COUNT(*) AS n FROM orders").unwrap();
        assert_eq!(reply.batch().unwrap().row(0)[0], Scalar::Int(3000));
        c.bye().unwrap();
        handle.shutdown();
    }
}

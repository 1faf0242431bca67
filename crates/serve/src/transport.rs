//! Socket transport: a line-delimited JSON daemon over TCP.
//!
//! [`serve`] binds a listener and pumps connections onto detached
//! per-connection threads; each connection reads request lines,
//! submits them to the shared [`Service`], and writes response lines
//! in request order. Because responses preserve arrival order on a
//! connection, a client may pipeline: write a whole batch of request
//! lines, then read the same number of response lines
//! ([`SocketClient::call_batch`]).
//!
//! The accept loop is non-blocking and polls a shutdown flag, so
//! [`Daemon::shutdown`] stops the listener promptly without needing a
//! self-connection trick; in-flight connections finish their current
//! request and exit when the peer closes or the service drains.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::error::Error;
use crate::queue::Priority;
use crate::request::{AnalysisRequest, AnalysisResponse};
use crate::service::Service;
use crate::wire::{
    decode_response_line, encode_request_line, encode_response_line, WireRequest, WireResponse,
};

const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A running socket daemon bound to a local address.
pub struct Daemon {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// The address the daemon is listening on (use with
    /// [`SocketClient::connect`]; bind to port 0 to let the OS pick).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Does not
    /// shut down the underlying [`Service`] — the owner does that.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Longest request line the daemon reads, in bytes, newline excluded.
/// A longer line is answered with a `wire` error and the connection is
/// closed: the rest of the line cannot be told apart from the next
/// request.
const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_line`] found.
enum Line {
    /// The peer closed the connection.
    Eof,
    /// The buffer holds one line, terminator stripped.
    Text,
    /// The line is longer than [`MAX_LINE_BYTES`].
    OverLong,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes into `buf`.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Line> {
    buf.clear();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > MAX_LINE_BYTES {
        return Ok(Line::OverLong);
    }
    Ok(Line::Text)
}

fn handle_connection(service: &Service, stream: TcpStream) -> Result<(), Error> {
    let mut writer_stream = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Submit on the read side, resolve on the write side: every
    // pipelined line is queued *before* the first result is awaited,
    // which is what lets the service coalesce a batch arriving on one
    // connection. Responses still go out in request order.
    let (tx, rx) = std::sync::mpsc::channel::<(u64, crate::service::Ticket)>();
    let writer_thread = thread::Builder::new()
        .name("aeropack-serve-write".to_string())
        .spawn(move || -> Result<(), Error> {
            for (id, ticket) in rx {
                let response = WireResponse {
                    id,
                    result: ticket.wait(),
                };
                let mut out = encode_response_line(&response);
                out.push('\n');
                writer_stream.write_all(out.as_bytes())?;
                writer_stream.flush()?;
            }
            Ok(())
        })
        .map_err(|e| Error::Io {
            reason: e.to_string(),
        })?;
    let rejected = |e: Error| (0, crate::service::Ticket::ready(Err(e)));
    let mut buf = Vec::new();
    let read_result = loop {
        let queued = match read_line(&mut reader, &mut buf) {
            Err(e) => break Err(Error::from(e)),
            Ok(Line::Eof) => break Ok(()),
            Ok(Line::OverLong) => {
                let _ = tx.send(rejected(Error::Wire {
                    reason: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                }));
                break Ok(());
            }
            Ok(Line::Text) => match std::str::from_utf8(&buf) {
                Err(e) => rejected(Error::Wire {
                    reason: format!("request line is not valid UTF-8: {e}"),
                }),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => match crate::wire::decode_request_line(line) {
                    Ok(req) => {
                        let deadline = req.deadline();
                        let ticket = service.submit_with(req.request, req.priority, deadline);
                        (req.id, ticket)
                    }
                    Err(e) => rejected(e),
                },
            },
        };
        if tx.send(queued).is_err() {
            break Ok(());
        }
    };
    drop(tx);
    let written = match writer_thread.join() {
        Ok(result) => result,
        Err(_) => Err(Error::Io {
            reason: "connection writer panicked".to_string(),
        }),
    };
    read_result.and(written)
}

/// Starts the TCP daemon for a shared service. `bind` is an address
/// like `"127.0.0.1:0"` (port 0 = OS-assigned, reported by
/// [`Daemon::addr`]).
pub fn serve(service: Arc<Service>, bind: &str) -> Result<Daemon, Error> {
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let obs_sink = aeropack_obs::propagation_handle();
    let accept_thread = thread::Builder::new()
        .name("aeropack-serve-accept".to_string())
        .spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let service = Arc::clone(&service);
                        let sink = obs_sink.clone();
                        let _ = thread::Builder::new()
                            .name("aeropack-serve-conn".to_string())
                            .spawn(move || {
                                let _sink = sink.map(aeropack_obs::attach);
                                // Peer disconnects surface as Err; the
                                // connection just ends.
                                let _ = handle_connection(&service, stream);
                            });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
        })
        .map_err(|e| Error::Io {
            reason: e.to_string(),
        })?;
    Ok(Daemon {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// A blocking client for the TCP daemon.
pub struct SocketClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl SocketClient {
    /// Connects to a daemon address (e.g. the value of
    /// [`Daemon::addr`]).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, Error> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    fn send(&mut self, req: &WireRequest) -> Result<(), Error> {
        let mut line = encode_request_line(req);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<WireResponse, Error> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(Error::Io {
                reason: "connection closed by daemon".to_string(),
            });
        }
        decode_response_line(line.trim_end())
    }

    /// One synchronous request/response exchange at normal priority.
    pub fn call(&mut self, request: AnalysisRequest) -> Result<AnalysisResponse, Error> {
        self.call_with(request, Priority::Normal, None)
    }

    /// One exchange with explicit priority and relative deadline.
    pub fn call_with(
        &mut self,
        request: AnalysisRequest,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<AnalysisResponse, Error> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&WireRequest {
            id,
            priority,
            deadline_ms,
            request,
        })?;
        let resp = self.receive()?;
        if resp.id != id {
            return Err(Error::Wire {
                reason: format!("response id {} does not match request id {id}", resp.id),
            });
        }
        resp.result
    }

    /// Pipelines a batch: writes every request line, then reads the
    /// responses in order. This is what lets the daemon coalesce
    /// same-model requests — they are all queued before the first
    /// solve starts.
    pub fn call_batch(
        &mut self,
        requests: Vec<AnalysisRequest>,
    ) -> Result<Vec<Result<AnalysisResponse, Error>>, Error> {
        let first_id = self.next_id;
        for request in &requests {
            let id = self.next_id;
            self.next_id += 1;
            self.send(&WireRequest {
                id,
                priority: Priority::Normal,
                deadline_ms: None,
                request: request.clone(),
            })?;
        }
        let mut results = Vec::with_capacity(requests.len());
        for offset in 0..requests.len() {
            let resp = self.receive()?;
            let expect = first_id + offset as u64;
            if resp.id != expect {
                return Err(Error::Wire {
                    reason: format!("response id {} does not match request id {expect}", resp.id),
                });
            }
            results.push(resp.result);
        }
        Ok(results)
    }
}

//! Per-connection state machine: nonblocking reads, pipelined dispatch,
//! in-order response writing, and the deadline bookkeeping.
//!
//! A connection owns a read buffer (bytes not yet parsed), a FIFO of
//! in-flight requests (each either waiting on a [`ResponseHandle`] or
//! already rendered), and an output buffer of response bytes awaiting the
//! socket. Responses always leave in request order — HTTP/1.1 pipelining
//! semantics — while the underlying queries run concurrently on the
//! serving runtime.
//!
//! Deadlines:
//!
//! * **read**: a partially received request must complete within
//!   `read_timeout` of the last byte, else `408` and close;
//! * **write**: a response the peer will not drain times out after
//!   `write_timeout` without progress, closing the connection;
//! * **idle**: a keep-alive connection with nothing buffered or in flight
//!   closes silently after `idle_timeout`.
//!
//! The epoch pinning that makes hot swaps graceful lives below this
//! layer: every admitted query is served end to end on the model epoch
//! current at submission, so a connection's in-flight work finishes on
//! its pinned epoch while new requests (on this or any connection) see
//! the new one.

use crate::http::{self, Limits, Parse};
use crate::json;
use crate::metrics::NetCounters;
use mips_core::engine::MipsError;
use mips_core::serve::ResponseHandle;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most requests a single connection may have in flight; beyond this the
/// connection stops reading until responses drain (pipelining
/// backpressure).
pub(crate) const MAX_PIPELINE: usize = 64;

/// The per-connection deadline configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadlines {
    pub(crate) read: Duration,
    pub(crate) write: Duration,
    pub(crate) idle: Duration,
}

/// What the router decided for one parsed request.
pub(crate) enum Dispatched {
    /// The response is already known (metrics, errors, admin calls).
    Immediate {
        status: u16,
        body: String,
        extra: Vec<(&'static str, String)>,
    },
    /// The request was admitted onto the serving runtime; the response
    /// materializes when the handle finishes.
    Query(ResponseHandle),
}

/// The routing hook the event loop injects into each connection.
pub(crate) trait Dispatch {
    fn dispatch(&self, request: &http::Request) -> Dispatched;
}

/// A rendered-but-unsent response: status, body, extra headers.
type Rendered = (u16, String, Vec<(&'static str, String)>);

/// One in-flight request slot. Exactly one of `handle`/`ready` is `Some`
/// until the slot is popped.
struct Slot {
    handle: Option<ResponseHandle>,
    ready: Option<Rendered>,
    keep_alive: bool,
}

/// One accepted connection.
pub(crate) struct Conn {
    stream: TcpStream,
    counters: Arc<NetCounters>,
    /// Received, not-yet-parsed bytes.
    buf: Vec<u8>,
    /// Rendered response bytes awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    inflight: VecDeque<Slot>,
    /// Instant of the last byte read (arms the read/idle deadlines).
    last_read: Instant,
    /// Instant of the last write progress (arms the write deadline).
    last_write: Instant,
    /// Whether the last parse attempt left a partial request in `buf`.
    reading_partial: bool,
    /// Whether the interim `100 Continue` was already sent for the
    /// currently arriving request.
    sent_continue: bool,
    /// No more reads/parses; flush `out`, settle `inflight`, then close.
    closing: bool,
    closed: bool,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        counters: Arc<NetCounters>,
        now: Instant,
    ) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            counters,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            last_read: now,
            last_write: now,
            reading_partial: false,
            sent_continue: false,
            closing: false,
            closed: false,
        })
    }

    /// A connection refused at the door: born with a prebuilt `503` and no
    /// read path, it exists only to deliver the shed notice.
    pub(crate) fn shed(
        stream: TcpStream,
        counters: Arc<NetCounters>,
        now: Instant,
    ) -> std::io::Result<Conn> {
        let mut conn = Conn::new(stream, counters, now)?;
        let body = json::encode_error(503, "connection limit reached; retry shortly");
        conn.enqueue_response(503, &body, &[("Retry-After", "1".to_string())], false);
        conn.closing = true;
        Ok(conn)
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether any admitted query is still unanswered.
    pub(crate) fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Quiescent for drain purposes: nothing in flight, nothing buffered
    /// to write.
    pub(crate) fn drained(&self) -> bool {
        self.inflight.is_empty() && self.out_pos >= self.out.len()
    }

    /// Advances the connection one step. Returns `true` when any progress
    /// was made (bytes moved or a state change), which the event loop uses
    /// to pace its idle sleeping. With `draining` set, no new requests are
    /// read or parsed — in-flight work settles and flushes, nothing else.
    pub(crate) fn tick(
        &mut self,
        router: &dyn Dispatch,
        limits: &Limits,
        deadlines: &Deadlines,
        now: Instant,
        draining: bool,
    ) -> bool {
        if self.closed {
            return false;
        }
        let mut progress = false;
        progress |= self.settle_inflight();
        progress |= self.flush(deadlines, now);
        if self.closed {
            return progress;
        }
        if self.closing {
            if self.inflight.is_empty() && self.out_pos >= self.out.len() {
                self.closed = true;
                progress = true;
            }
            return progress;
        }
        if draining {
            return progress;
        }
        // Requests pipelined past the cap wait complete in `buf`: parse them
        // as soon as a slot frees, not only when the peer sends more bytes
        // (a client that has finished sending never would).
        if self.inflight.len() < MAX_PIPELINE && !self.reading_partial && !self.buf.is_empty() {
            let before = self.inflight.len();
            self.parse_available(router, limits);
            progress |= self.inflight.len() != before;
        }
        if !self.closing && self.inflight.len() < MAX_PIPELINE {
            progress |= self.fill(router, limits, deadlines, now);
        }
        progress
    }

    /// Moves finished in-flight responses (front of the FIFO only — wire
    /// order) into the output buffer.
    fn settle_inflight(&mut self) -> bool {
        let mut progress = false;
        loop {
            let front_ready = match self.inflight.front_mut() {
                None => break,
                Some(slot) => {
                    if slot.ready.is_none() {
                        if let Some(handle) = slot.handle.take() {
                            if handle.is_finished() {
                                // is_finished => wait() returns without
                                // blocking.
                                slot.ready = Some(render_query_outcome(handle.wait()));
                            } else {
                                slot.handle = Some(handle);
                            }
                        }
                    }
                    slot.ready.is_some()
                }
            };
            if !front_ready {
                break;
            }
            if let Some(slot) = self.inflight.pop_front() {
                if let Some((status, body, extra)) = slot.ready {
                    self.enqueue_response(status, &body, &extra, slot.keep_alive);
                    if !slot.keep_alive {
                        self.closing = true;
                    }
                }
                progress = true;
            }
        }
        progress
    }

    /// Renders a response into the output buffer and counts it.
    fn enqueue_response(
        &mut self,
        status: u16,
        body: &str,
        extra: &[(&str, String)],
        keep_alive: bool,
    ) {
        let bytes = http::write_response(status, body.as_bytes(), keep_alive, extra);
        self.out.extend_from_slice(&bytes);
        self.counters.count_response(status);
    }

    /// Writes pending output; applies the write deadline.
    fn flush(&mut self, deadlines: &Deadlines, now: Instant) -> bool {
        if self.out_pos >= self.out.len() {
            if !self.out.is_empty() {
                self.out.clear();
                self.out_pos = 0;
            }
            self.last_write = now;
            return false;
        }
        match self.stream.write(&self.out[self.out_pos..]) {
            Ok(0) => {
                self.closed = true;
                true
            }
            Ok(n) => {
                self.out_pos += n;
                self.last_write = now;
                self.counters.add(&self.counters.bytes_written, n as u64);
                if self.out_pos >= self.out.len() {
                    self.out.clear();
                    self.out_pos = 0;
                }
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if now.saturating_duration_since(self.last_write) > deadlines.write {
                    self.counters.add(&self.counters.timeouts, 1);
                    self.closed = true;
                    return true;
                }
                false
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => false,
            Err(_) => {
                self.closed = true;
                true
            }
        }
    }

    /// Reads available bytes and parses as many pipelined requests as the
    /// buffer holds; applies the read and idle deadlines.
    fn fill(
        &mut self,
        router: &dyn Dispatch,
        limits: &Limits,
        deadlines: &Deadlines,
        now: Instant,
    ) -> bool {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer finished sending. A partial request can never
                // complete; pipelined responses still flush before close.
                if !self.buf.is_empty() {
                    self.counters.add(&self.counters.parse_errors, 1);
                    self.refuse(400, "connection closed mid-request");
                }
                self.closing = true;
                true
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.last_read = now;
                self.counters.add(&self.counters.bytes_read, n as u64);
                self.parse_available(router, limits);
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since_read = now.saturating_duration_since(self.last_read);
                if self.reading_partial && since_read > deadlines.read {
                    self.counters.add(&self.counters.timeouts, 1);
                    self.refuse(408, "request not completed within the read deadline");
                    true
                } else if !self.reading_partial
                    && self.inflight.is_empty()
                    && self.out_pos >= self.out.len()
                    && since_read > deadlines.idle
                {
                    self.closed = true;
                    true
                } else {
                    false
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => false,
            Err(_) => {
                self.closed = true;
                true
            }
        }
    }

    /// Parses every complete request currently buffered (up to the
    /// pipeline cap), dispatching each.
    fn parse_available(&mut self, router: &dyn Dispatch, limits: &Limits) {
        while !self.closing && self.inflight.len() < MAX_PIPELINE {
            if self.buf.is_empty() {
                self.reading_partial = false;
                break;
            }
            match http::parse_request(&self.buf, limits) {
                Parse::Incomplete { expects_continue } => {
                    self.reading_partial = true;
                    if expects_continue && !self.sent_continue {
                        self.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                        self.sent_continue = true;
                    }
                    break;
                }
                Parse::Bad(err) => {
                    self.counters.add(&self.counters.parse_errors, 1);
                    self.refuse(err.status, &err.message);
                    break;
                }
                Parse::Ready(request) => {
                    self.reading_partial = false;
                    self.sent_continue = false;
                    self.buf.drain(..request.consumed);
                    self.counters.add(&self.counters.http_requests, 1);
                    let slot = match router.dispatch(&request) {
                        Dispatched::Immediate {
                            status,
                            body,
                            extra,
                        } => Slot {
                            handle: None,
                            ready: Some((status, body, extra)),
                            keep_alive: request.keep_alive,
                        },
                        Dispatched::Query(handle) => Slot {
                            handle: Some(handle),
                            ready: None,
                            keep_alive: request.keep_alive,
                        },
                    };
                    let keep_alive = slot.keep_alive;
                    self.inflight.push_back(slot);
                    if !keep_alive {
                        // An explicit close: read nothing further; the
                        // connection drains its in-flight work and closes
                        // once this response flushes.
                        self.closing = true;
                        break;
                    }
                }
            }
        }
    }

    /// Queues a terminal error response (in wire order, after everything
    /// already in flight) and stops reading.
    fn refuse(&mut self, status: u16, message: &str) {
        self.inflight.push_back(Slot {
            handle: None,
            ready: Some((status, json::encode_error(status, message), Vec::new())),
            keep_alive: false,
        });
        self.closing = true;
    }
}

/// Renders a settled query outcome: 200 with the response body, or the
/// error's canonical HTTP status with a JSON error body.
fn render_query_outcome(outcome: Result<mips_core::engine::QueryResponse, MipsError>) -> Rendered {
    match outcome {
        Ok(response) => (200, json::encode_response(&response), Vec::new()),
        Err(error) => {
            let status = error.http_status();
            (
                status,
                json::encode_error(status, &error.to_string()),
                Vec::new(),
            )
        }
    }
}

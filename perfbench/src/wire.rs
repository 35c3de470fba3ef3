//! A nonblocking HTTP/1.1 client connection for the load generator: one
//! thread keeps many pipelined requests in flight and reads responses as
//! they arrive, without ever blocking on the socket.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: String,
}

pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: open(addr)?,
            inbuf: Vec::with_capacity(64 * 1024),
            outbuf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Re-opens a lost connection; buffered bytes of either direction are
    /// dropped (their requests are counted as unanswered by the caller).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.inbuf.clear();
        self.outbuf.clear();
        self.stream = open(self.addr)?;
        Ok(())
    }

    /// Queues a request; [`Conn::flush`] puts it on the wire.
    pub fn queue(&mut self, method: &str, path: &str, body: &str) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.outbuf.extend_from_slice(head.as_bytes());
        self.outbuf.extend_from_slice(body.as_bytes());
    }

    /// Writes as much of the queue as the socket takes now.
    pub fn flush(&mut self) -> std::io::Result<()> {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived; `Ok(false)` when nothing had.
    pub fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut any = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    any = true;
                    if n < chunk.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes the next complete response off the read buffer (interim 1xx
    /// responses are skipped).
    pub fn next_response(&mut self) -> std::io::Result<Option<Response>> {
        loop {
            let Some(head_end) = self.inbuf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(None);
            };
            let head = std::str::from_utf8(&self.inbuf[..head_end])
                .map_err(|_| bad("non-UTF-8 response head"))?;
            let mut lines = head.split("\r\n");
            let status: u16 = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let mut length = 0usize;
            for line in lines {
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        length = value
                            .trim()
                            .parse()
                            .map_err(|_| bad("bad content-length"))?;
                    }
                }
            }
            let total = head_end + 4 + length;
            if self.inbuf.len() < total {
                return Ok(None);
            }
            let body = String::from_utf8(self.inbuf[head_end + 4..total].to_vec())
                .map_err(|_| bad("non-UTF-8 body"))?;
            self.inbuf.drain(..total);
            if status >= 200 {
                return Ok(Some(Response { status, body }));
            }
        }
    }
}

/// Blocks until one of `conns` has bytes to read or `timeout` passes,
/// whichever is first, so the generator neither spins against the server
/// for the two cores nor oversleeps an answer.
pub fn wait_readable(conns: &[&Conn], timeout: Duration) {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        let mut fds: Vec<sys::PollFd> = conns
            .iter()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        let ts = sys::Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd records whose descriptors stay open for the
        // call (the connections are borrowed); `ts` outlives the call and
        // a null signal mask is allowed. The result only says whether to
        // read, which the caller's nonblocking reads check anyway.
        unsafe {
            sys::ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = conns;
        std::thread::sleep(timeout.min(Duration::from_micros(50)));
    }
}

/// Makes this thread's timed waits wake within a microsecond of their
/// deadline instead of the default 50 us slack, so send times follow the
/// schedule.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes only
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1000u64);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    pub const POLLIN: i16 = 0x1;
    pub const PR_SET_TIMERSLACK: i32 = 29;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        pub fn prctl(option: i32, ...) -> i32;
    }
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

/// The `"epoch"` field of a response body, found without a full parse (the
/// generator reads it off every response to spot the first answer from a
/// new epoch).
pub fn epoch_of(body: &str) -> Option<u64> {
    let at = body.find("\"epoch\":")? + "\"epoch\":".len();
    let digits: &str = &body[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

//! An open-loop load generator: one thread, nonblocking sockets, and
//! a fixed send schedule that does not wait for replies. Requests may
//! pipeline on a connection. Each reply is timed from when its request
//! was due, so a stall counts against every request it delays.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A request the schedule asks for: which connection, the JSON line,
/// and a caller tag returned with the reply.
pub struct Req {
    pub conn: usize,
    pub line: String,
    pub tag: usize,
}

/// One answered request.
pub struct Done {
    pub tag: usize,
    pub conn: usize,
    pub due: Instant,
    pub sent: Instant,
    pub recv: Instant,
    pub resp: String,
}

pub struct Report {
    /// Replies in the order they arrived.
    pub done: Vec<Done>,
    /// Requests that got no reply before the drain deadline.
    pub unanswered: usize,
    /// How late requests left the generator, in microseconds.
    pub late_p99_us: f64,
    pub late_max_us: f64,
    /// Share of requests sent more than `LATE_LIMIT` after their due time.
    pub late_share: f64,
}

/// A request sent later than this after its due time counts as late.
pub const LATE_LIMIT: Duration = Duration::from_millis(20);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until a socket is readable (or writable, where output is
/// pending) or `timeout` passes.
fn wait(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, correctly laid out `struct pollfd` array
    // of `fds.len()` entries, `ts` is a valid `struct timespec`, and a
    // null signal mask is allowed (no mask change). ppoll only writes
    // the `revents` fields, which we own.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<(usize, Instant, Instant)>,
}

/// Sends `n` requests at `rate` per second over `streams` (set to
/// nonblocking here), asking `next(i)` for request `i`, then waits up
/// to `drain` for the replies still outstanding.
pub fn run(
    streams: Vec<TcpStream>,
    rate: f64,
    n: usize,
    mut next: impl FnMut(usize) -> Req,
    drain: Duration,
) -> io::Result<(Report, Vec<TcpStream>)> {
    let mut conns = Vec::new();
    for s in streams {
        s.set_nonblocking(true)?;
        conns.push(Conn {
            stream: s,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        });
    }
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut late_us: Vec<f64> = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    let mut i = 0;
    let end = due(n) + drain;
    let mut chunk = [0u8; 16384];
    loop {
        let now = Instant::now();
        while i < n && due(i) <= now {
            let req = next(i);
            let c = &mut conns[req.conn];
            c.out.extend_from_slice(req.line.as_bytes());
            c.out.push(b'\n');
            c.pending.push_back((req.tag, due(i), now));
            late_us.push(now.duration_since(due(i)).as_secs_f64() * 1e6);
            i += 1;
        }
        for (ci, c) in conns.iter_mut().enumerate() {
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(k) => {
                        c.out.drain(..k);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => return Err(io::Error::other("server closed a connection")),
                    Ok(k) => c.inbuf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let recv = Instant::now();
            while let Some(pos) = c.inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = c.inbuf.drain(..=pos).collect();
                let (tag, due, sent) = c
                    .pending
                    .pop_front()
                    .ok_or_else(|| io::Error::other("reply without a request"))?;
                done.push(Done {
                    tag,
                    conn: ci,
                    due,
                    sent,
                    recv,
                    resp: String::from_utf8_lossy(&line[..line.len() - 1]).into_owned(),
                });
            }
        }
        let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
        let now = Instant::now();
        if i == n && (outstanding == 0 || now >= end) {
            let mut streams = Vec::new();
            for c in conns {
                c.stream.set_nonblocking(false)?;
                streams.push(c.stream);
            }
            late_us.sort_by(f64::total_cmp);
            let late = late_us
                .iter()
                .filter(|&&l| l > LATE_LIMIT.as_secs_f64() * 1e6)
                .count();
            let report = Report {
                done,
                unanswered: outstanding,
                late_p99_us: crate::util::quantile(&late_us, 0.99),
                late_max_us: late_us.last().copied().unwrap_or(0.0),
                late_share: late as f64 / n.max(1) as f64,
            };
            return Ok((report, streams));
        }
        let until = if i < n { due(i) } else { end };
        let timeout = until
            .saturating_duration_since(now)
            .min(Duration::from_millis(5));
        if !timeout.is_zero() {
            wait(&conns, timeout);
        }
    }
}

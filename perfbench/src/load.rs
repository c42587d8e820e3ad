//! The load generator: client connections that frame requests themselves,
//! so every response is timestamped as its frame arrives and every byte on
//! the wire is counted.  Closed loops send pipelined bursts; the open loop
//! sends on a seeded Poisson schedule and times each request from when it
//! was due.  A broken connection is reopened, and every request due while
//! it is down counts as attempted and failed.

use crate::gen::{Expect, Op, OpStream};
use gp_netauth::{FrameReader, FrameWriter, LoginDecision, NetAuthError, ServerMessage};
use std::cell::Cell;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting it failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a closed loop waits after a burst failed to connect.
const RECONNECT_PAUSE: Duration = Duration::from_millis(10);

/// The measured window: requests sent (closed loop) or due (open loop) in
/// `[t0, t1)` are measured; everything before `t0` is warm-up.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When load starts (warm-up begins).
    pub start: Instant,
    /// When measurement starts.
    pub t0: Instant,
    /// When measurement ends; no request is sent after it.
    pub t1: Instant,
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Login latencies (µs) of measured requests; a failed request counts
    /// as infinitely late, so it misses every latency limit.
    pub login_us: Vec<f64>,
    /// Enroll latencies (µs) of measured requests, failures as for logins.
    pub enroll_us: Vec<f64>,
    /// How late the generator itself sent measured requests (µs): sleep
    /// overshoot of an idle open-loop connection; in the closed loop, the
    /// gap between a burst's last response and the next burst's send.
    pub late_us: Vec<f64>,
    /// Measured requests.
    pub attempted: u64,
    /// Measured requests that got an error response, a transport error or
    /// a timeout.
    pub failed: u64,
    /// Requests (measured or not) answered with a wrong decision.
    pub wrong: u64,
    /// The first wrong decision, for the log.
    pub first_wrong: Option<String>,
    /// Correct responses that arrived inside the window.
    pub acked_in_window: u64,
    /// Enrollments among those.
    pub enrolls_acked_in_window: u64,
    /// Bytes sent and received for measured requests.
    pub bytes: u64,
}

impl Tally {
    /// Fold another connection's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.login_us.extend(other.login_us);
        self.enroll_us.extend(other.enroll_us);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.first_wrong = self.first_wrong.take().or(other.first_wrong);
        self.acked_in_window += other.acked_in_window;
        self.enrolls_acked_in_window += other.enrolls_acked_in_window;
        self.bytes += other.bytes;
    }

    /// Record one response to `op`, sent at `sent` (the open loop passes
    /// the due time), answered at `done`.
    fn record(
        &mut self,
        op: &Op,
        response: Result<ServerMessage, NetAuthError>,
        sent: Instant,
        done: Instant,
        window: &Window,
    ) {
        let measured = sent >= window.t0 && sent < window.t1;
        let verdict = judge(op.expect, &response);
        if measured {
            let us = match verdict {
                Verdict::Failed => f64::INFINITY,
                _ => done.duration_since(sent).as_secs_f64() * 1e6,
            };
            if op.is_enroll() {
                self.enroll_us.push(us);
            } else {
                self.login_us.push(us);
            }
        }
        match verdict {
            Verdict::Correct => {
                if done >= window.t0 && done < window.t1 {
                    self.acked_in_window += 1;
                    self.enrolls_acked_in_window += u64::from(op.is_enroll());
                }
            }
            Verdict::Failed => self.failed += u64::from(measured),
            Verdict::Wrong => {
                self.wrong += 1;
                if self.first_wrong.is_none() {
                    self.first_wrong = Some(format!(
                        "{:?} expected {:?}, got {:?}",
                        op.message, op.expect, response
                    ));
                }
            }
        }
        self.attempted += u64::from(measured);
    }
}

enum Verdict {
    Correct,
    /// Transport error, timeout or error response: counted in `fail_frac`.
    Failed,
    /// A decision the server must never make.
    Wrong,
}

fn judge(expect: Expect, response: &Result<ServerMessage, NetAuthError>) -> Verdict {
    use LoginDecision::{Accepted, LockedOut, Rejected};
    match (expect, response) {
        (_, Err(_)) | (_, Ok(ServerMessage::Error { .. })) => Verdict::Failed,
        (
            Expect::Accept,
            Ok(ServerMessage::LoginResult {
                decision: Accepted, ..
            }),
        )
        | (Expect::EnrollOk, Ok(ServerMessage::EnrollOk))
        | (
            Expect::Refuse,
            Ok(ServerMessage::LoginResult {
                decision: Rejected | LockedOut,
                ..
            }),
        ) => Verdict::Correct,
        _ => Verdict::Wrong,
    }
}

/// A stream wrapper counting every byte moved.
struct Counted {
    stream: TcpStream,
    bytes: Rc<Cell<u64>>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// One client connection speaking the framed protocol.
struct Conn {
    reader: FrameReader<BufReader<Counted>>,
    writer: FrameWriter<BufWriter<Counted>>,
    bytes: Rc<Cell<u64>>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
        let bytes = Rc::new(Cell::new(0));
        let counted = |stream| Counted {
            stream,
            bytes: Rc::clone(&bytes),
        };
        Ok(Self {
            reader: FrameReader::new(BufReader::new(counted(stream.try_clone()?))),
            writer: FrameWriter::new(BufWriter::new(counted(stream))),
            bytes,
        })
    }

    fn send(&mut self, ops: &[Op]) -> Result<(), NetAuthError> {
        for op in ops {
            self.writer.write_frame_buffered(&op.message.encode())?;
        }
        self.writer.flush()
    }

    fn receive(&mut self) -> Result<ServerMessage, NetAuthError> {
        ServerMessage::decode(self.reader.read_frame()?)
    }
}

/// The open connection, reopened first if it broke.
fn connected(conn: &mut Option<Conn>, addr: SocketAddr) -> Result<&mut Conn, NetAuthError> {
    if conn.is_none() {
        *conn = Some(Conn::connect(addr)?);
    }
    Ok(conn.as_mut().expect("connected above"))
}

/// Closed loop: send `depth`-deep pipelined bursts (`enrolls` of each
/// burst fresh enrollments), each only after the previous burst's last
/// response, until the window ends.  Latency runs from the burst's send to
/// each response's frame.
pub fn closed_loop(
    addr: SocketAddr,
    mut stream: OpStream,
    depth: usize,
    enrolls: usize,
    window: Window,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = None;
    let mut last_response = None;
    while Instant::now() < window.t1 {
        let ops = stream.burst(depth, enrolls);
        let sent = Instant::now();
        let c = match connected(&mut conn, addr) {
            Ok(c) => c,
            Err(_) => {
                // No connection: the whole burst fails, then retry.
                for op in &ops {
                    let response = Err(NetAuthError::Io(ErrorKind::NotConnected.into()));
                    tally.record(op, response, sent, Instant::now(), &window);
                }
                std::thread::sleep(RECONNECT_PAUSE);
                continue;
            }
        };
        let bytes_before = c.bytes.get();
        if let (Some(last), true) = (last_response, sent >= window.t0) {
            tally
                .late_us
                .push(sent.duration_since(last).as_secs_f64() * 1e6);
        }
        let mut broken = c.send(&ops).err();
        for op in &ops {
            let response = match broken.take() {
                Some(e) => Err(e),
                None => c.receive(),
            };
            let failed = response.is_err();
            tally.record(op, response, sent, Instant::now(), &window);
            if failed {
                // The connection's state is unknown: the rest of the burst
                // fails with it.
                broken = Some(NetAuthError::UnexpectedEof);
            }
        }
        last_response = Some(Instant::now());
        if sent >= window.t0 {
            tally.bytes += c.bytes.get() - bytes_before;
        }
        if broken.is_some() {
            conn = None;
        }
    }
    tally
}

/// Open loop: one unpipelined user stream sending logins at `rate`
/// requests per second (Poisson arrivals).  A request whose predecessor is
/// still outstanding goes out late, and its latency counts from when it
/// was due.
pub fn open_loop(addr: SocketAddr, mut stream: OpStream, rate: f64, window: Window) -> Tally {
    let mut tally = Tally::default();
    let mut conn = None;
    let mut due = window.start;
    loop {
        due += Duration::from_secs_f64(-(1.0 - stream.unit()).ln() / rate);
        if due >= window.t1 {
            break;
        }
        let op = stream.login();
        // A request due while its predecessor is still outstanding is late
        // because of the server; that wait is in its latency.  Only the
        // sleep overshoot of an idle connection is the generator's own.
        let now = Instant::now();
        let idle = due > now;
        if idle {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let c = match connected(&mut conn, addr) {
            Ok(c) => c,
            Err(e) => {
                tally.record(&op, Err(e), due, Instant::now(), &window);
                continue;
            }
        };
        let bytes_before = c.bytes.get();
        let response = c.send(std::slice::from_ref(&op)).and_then(|()| c.receive());
        let failed = response.is_err();
        tally.record(&op, response, due, Instant::now(), &window);
        if due >= window.t0 {
            if idle {
                tally
                    .late_us
                    .push(sent.duration_since(due).as_secs_f64() * 1e6);
            }
            tally.bytes += c.bytes.get() - bytes_before;
        }
        if failed {
            conn = None;
        }
    }
    tally
}

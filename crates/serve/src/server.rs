//! The daemon: a `TcpListener` accept loop, a shared session table, and
//! idle eviction.
//!
//! Concurrency model: `workers` loops run on the `clarify-par` pool;
//! each multiplexes any number of nonblocking connections (poll, not
//! thread-per-connection — the worker count bounds CPU use and no
//! client can exhaust threads). All connections share one session
//! table — a client may open a session on one connection, disconnect
//! mid-turn, and resume it from another. Turns on *different* sessions
//! run concurrently across workers; turns on the *same* session
//! serialize on that session's mutex, which is what makes replay
//! deterministic (see DESIGN.md §11).
//!
//! Lock order: `sessions` before `wheel`, never the reverse. Session
//! mutexes are only taken while holding neither.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use clarify_llm::BackendStack;
use clarify_netconfig::Config;
use clarify_netsim::TopologySpec;

use crate::clock::{Clock, SystemClock};
use crate::proto::{parse_request, Frame, ProtoError, Request};
use crate::session::Session;
use crate::wheel::DeadlineWheel;

/// Daemon tunables.
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:4545`. Port 0 picks one.
    pub addr: String,
    /// Live-session cap; opens beyond it get a `busy` error.
    pub max_sessions: usize,
    /// Sessions idle longer than this are evicted.
    pub idle_timeout_ms: u64,
    /// Longest accepted request line; longer closes the connection.
    pub max_frame_bytes: usize,
    /// Accept-loop workers (0 = the `clarify-par` thread count).
    pub workers: usize,
    /// The backend stack every session builds its pipeline from. Each
    /// open builds a fresh stack instance, so replay cursors and fault
    /// RNGs are per-session while daemon and one-shot CLI runs share the
    /// identical middleware composition.
    pub backend: BackendStack,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 1024,
            idle_timeout_ms: 300_000,
            max_frame_bytes: 1 << 20,
            workers: 0,
            backend: BackendStack::semantic(),
        }
    }
}

/// One table slot. `last_activity` lives outside the session mutex so
/// eviction scans never contend with a turn in progress.
struct SessionEntry {
    last_activity: AtomicU64,
    session: Mutex<Session>,
}

/// State shared by every worker: the session table, the eviction wheel,
/// and the clock. Separated from the listener so unit tests can drive
/// turns and eviction without a socket.
pub struct Shared {
    cfg: ServerConfig,
    clock: Arc<dyn Clock>,
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    wheel: Mutex<DeadlineWheel>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    /// Builds the shared state with an injected clock.
    pub fn new(cfg: ServerConfig, clock: Arc<dyn Clock>) -> Shared {
        let obs = clarify_obs::global();
        obs.counter("serve.turns");
        obs.counter("serve.evictions");
        obs.counter("serve.sessions.opened");
        obs.gauge("serve.sessions.live").set(0);
        Shared {
            cfg,
            clock,
            sessions: Mutex::new(HashMap::new()),
            wheel: Mutex::new(DeadlineWheel::new()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The configured tunables.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Live sessions right now.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether `shutdown` has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: accept loops drain and exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn set_live_gauge(&self, n: usize) {
        clarify_obs::global()
            .gauge("serve.sessions.live")
            .set(n as i64);
    }

    /// Evicts every session idle past the timeout. Called from accept
    /// loops between polls and before opens; cheap when nothing is due.
    pub fn evict_expired(&self) {
        let now = self.clock.now_ms();
        let mut sessions = self.sessions.lock().unwrap();
        let expired = {
            let mut wheel = self.wheel.lock().unwrap();
            wheel.expired(now, self.cfg.idle_timeout_ms, |id| {
                sessions
                    .get(&id)
                    .map(|e| e.last_activity.load(Ordering::SeqCst))
            })
        };
        if expired.is_empty() {
            return;
        }
        let obs = clarify_obs::global();
        for id in expired {
            if sessions.remove(&id).is_some() {
                obs.counter("serve.evictions").incr();
            }
        }
        self.set_live_gauge(sessions.len());
    }

    /// Inserts a freshly opened session and returns its id.
    fn insert(&self, session: Session) -> Result<u64, ProtoError> {
        self.evict_expired();
        let now = self.clock.now_ms();
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut sessions = self.sessions.lock().unwrap();
        if sessions.len() >= self.cfg.max_sessions {
            return Err(ProtoError {
                code: "busy",
                message: format!(
                    "session table is full ({} live); retry later or raise --max-sessions",
                    sessions.len()
                ),
            });
        }
        sessions.insert(
            id,
            Arc::new(SessionEntry {
                last_activity: AtomicU64::new(now),
                session: Mutex::new(session),
            }),
        );
        self.wheel
            .lock()
            .unwrap()
            .schedule(now.saturating_add(self.cfg.idle_timeout_ms), id);
        let obs = clarify_obs::global();
        obs.counter("serve.sessions.opened").incr();
        self.set_live_gauge(sessions.len());
        Ok(id)
    }

    /// Runs `f` on the session, serialized against other turns on it.
    fn with_session<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Session) -> Result<R, ProtoError>,
    ) -> Result<R, ProtoError> {
        let entry = {
            let sessions = self.sessions.lock().unwrap();
            sessions.get(&id).cloned().ok_or(ProtoError {
                code: "unknown-session",
                message: format!("no session {id} (closed, evicted, or never opened)"),
            })?
        };
        let now = self.clock.now_ms();
        entry.last_activity.store(now, Ordering::SeqCst);
        self.wheel
            .lock()
            .unwrap()
            .schedule(now.saturating_add(self.cfg.idle_timeout_ms), id);
        let _span = clarify_obs::span!("serve_turn");
        clarify_obs::global().counter("serve.turns").incr();
        let mut session = entry.session.lock().unwrap();
        f(&mut session)
    }

    fn open_config(&self, text: &str) -> Result<String, ProtoError> {
        let config = Config::parse(text)
            .map_err(|e| ProtoError::bad(format!("config did not parse: {e}")))?;
        let id = self.insert(Session::new_config(config, &self.cfg.backend))?;
        Ok(Frame::ok(true).u64("session", id).finish())
    }

    fn open_network(
        &self,
        topology: &str,
        configs: &[(String, String)],
        invariants: Vec<clarify_core::Invariant>,
    ) -> Result<String, ProtoError> {
        let spec = TopologySpec::parse(topology)
            .map_err(|e| ProtoError::bad(format!("topology did not parse: {e}")))?;
        let loaded = spec
            .instantiate(&mut |path: &str| {
                configs
                    .iter()
                    .find(|(p, _)| p == path)
                    .map(|(_, text)| text.clone())
                    .ok_or_else(|| format!("no config supplied for '{path}'"))
            })
            .map_err(|e| ProtoError::bad(format!("topology did not instantiate: {e}")))?;
        let session = Session::new_network(loaded.network, invariants, &self.cfg.backend)
            .map_err(|e| ProtoError::bad(format!("network session rejected: {e}")))?;
        let id = self.insert(session)?;
        Ok(Frame::ok(true).u64("session", id).finish())
    }

    fn close(&self, id: u64) -> Result<String, ProtoError> {
        let mut sessions = self.sessions.lock().unwrap();
        match sessions.remove(&id) {
            Some(_) => {
                self.set_live_gauge(sessions.len());
                Ok(Frame::ok(true).u64("closed", id).finish())
            }
            None => Err(ProtoError {
                code: "unknown-session",
                message: format!("no session {id} (closed, evicted, or never opened)"),
            }),
        }
    }

    /// Handles one request line. Returns the response frame (without
    /// newline) and whether the connection should close afterwards.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => return (e.frame(), false),
        };
        let result = match request {
            Request::Ping => Ok(Frame::ok(true).bool("pong", true).finish()),
            Request::Shutdown => {
                self.request_shutdown();
                return (Frame::ok(true).bool("shutting-down", true).finish(), true);
            }
            Request::OpenConfig { config } => self.open_config(&config),
            Request::OpenNetwork {
                topology,
                configs,
                invariants,
            } => self.open_network(&topology, &configs, invariants),
            Request::Ask {
                session,
                target,
                router,
                intent,
            } => self.with_session(session, |s| {
                s.ask(session, &target, router.as_deref(), &intent)
            }),
            Request::Answer { session, choice } => {
                self.with_session(session, |s| s.answer(session, choice))
            }
            Request::Lint { session } => self.with_session(session, |s| s.lint(session)),
            Request::Close { session } => self.close(session),
        };
        match result {
            Ok(frame) => (frame, false),
            Err(e) => (e.frame(), false),
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `cfg.addr` with the production clock.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with_clock(cfg, Arc::new(SystemClock::new()))
    }

    /// Binds with an injected clock (tests drive eviction manually).
    pub fn bind_with_clock(cfg: ServerConfig, clock: Arc<dyn Clock>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(cfg, clock)),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (for tests and for embedding).
    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Serves until a `shutdown` request arrives. Spawns the configured
    /// number of accept loops on the `clarify-par` pool and blocks.
    pub fn run(self) -> std::io::Result<()> {
        let workers = if self.shared.cfg.workers == 0 {
            clarify_par::current_threads().max(1)
        } else {
            self.shared.cfg.workers
        };
        let slots: Vec<usize> = (0..workers).collect();
        let listener = &self.listener;
        let shared = &self.shared;
        clarify_par::par_map(&slots, |_| accept_loop(listener, shared));
        Ok(())
    }
}

/// One multiplexed connection: a nonblocking stream plus the bytes read
/// so far that do not yet form a complete line.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if shared.shutdown_requested() {
            return;
        }
        shared.evict_expired();
        let mut progressed = false;
        // Drain the accept queue without blocking.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Frames are tiny and latency-bound: Nagle + delayed
                    // ACK would add ~40ms to every turn.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_ok() {
                        conns.push(Conn {
                            stream,
                            buf: Vec::new(),
                        });
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        conns.retain_mut(|conn| match poll_conn(shared, conn) {
            Poll::Progress => {
                progressed = true;
                true
            }
            Poll::Idle => true,
            Poll::Close => {
                progressed = true;
                false
            }
        });
        if !progressed {
            // Nothing readable anywhere: park briefly instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

enum Poll {
    /// Lines were processed or bytes arrived.
    Progress,
    /// Nothing to read right now.
    Idle,
    /// EOF, IO error, oversized frame, or a close-after-response op.
    Close,
}

/// Reads whatever the socket has, answers every complete line, and
/// returns without blocking. A disconnect mid-turn leaves the session
/// intact — the client can reconnect and resume by session id.
fn poll_conn(shared: &Shared, conn: &mut Conn) -> Poll {
    let mut chunk = [0u8; 4096];
    let mut progressed = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Poll::Close, // EOF: client went away; sessions survive.
            Ok(n) => {
                progressed = true;
                conn.buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                    let text = text.trim();
                    if text.is_empty() {
                        continue;
                    }
                    let (frame, close) = shared.handle_line(text);
                    if write_frame(&mut conn.stream, &frame).is_err() || close {
                        return Poll::Close;
                    }
                }
                if conn.buf.len() > shared.cfg.max_frame_bytes {
                    // The line cannot be re-synchronized; report and close
                    // this connection only.
                    let err = ProtoError {
                        code: "oversized-frame",
                        message: format!(
                            "request line exceeds {} bytes; closing connection",
                            shared.cfg.max_frame_bytes
                        ),
                    };
                    let _ = write_frame(&mut conn.stream, &err.frame());
                    return Poll::Close;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return if progressed {
                    Poll::Progress
                } else {
                    Poll::Idle
                };
            }
            Err(_) => return Poll::Close,
        }
    }
}

/// Writes one frame as a single buffer (frame + newline in one syscall —
/// split writes would re-trigger Nagle stalls even with nodelay set on
/// only one end). The stream is flipped to blocking for the write
/// (responses must go out whole) with a timeout so a stalled client
/// cannot wedge the worker, then back to nonblocking for reads.
fn write_frame(w: &mut TcpStream, frame: &str) -> std::io::Result<()> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    w.set_nonblocking(false)?;
    w.set_write_timeout(Some(Duration::from_secs(10)))?;
    let result = w.write_all(line.as_bytes()).and_then(|()| w.flush());
    w.set_nonblocking(true)?;
    result
}

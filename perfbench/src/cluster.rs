//! One router + worker pair of `aurora_serve` daemons in a fresh
//! directory, and the client connection to the router.
//!
//! The worker is started by the benchmark and joined to the router with
//! `--backend`, rather than spawned by `--router --workers 1`: a spawned
//! worker gets no `--access-log`, and the traced run needs the worker's
//! per-request records. For the same reason the router's health census
//! reports no pid for the shard, so the worker's pid is the one the
//! benchmark spawned; the census is still checked for exactly one
//! healthy shard on the worker's socket.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKER_SOCK: &str = "w.sock";
const ROUTER_SOCK: &str = "r.sock";
pub const WORKER_LOG: &str = "worker.log";
pub const ROUTER_LOG: &str = "router.log";
const READY_BUDGET: Duration = Duration::from_secs(20);

extern "C" {
    // libc, already linked through std
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}
const SIGTERM: i32 = 15;

/// Pins this process, and so every daemon it spawns, to the highest
/// CPU it may run on. A closed loop has one op in flight, so one CPU
/// carries the whole stack; on one CPU each hand-off between client,
/// router and worker is a plain context switch rather than a
/// cross-CPU wake-up, whose cost varies with placement from run to run.
/// Returns the CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(cpu)
}

/// A running router + worker pair. Dropping it without [`Cluster::stop`]
/// kills both processes.
pub struct Cluster {
    dir: PathBuf,
    worker: Option<Child>,
    router: Option<Child>,
}

impl Cluster {
    /// Starts a worker (`--workers 1`, engine pool `AURORA_THREADS=1`)
    /// and a router fronting it, in `dir` (emptied first). With
    /// `traced`, both write access logs and the worker runs the engine's
    /// span and allocation profilers.
    pub fn start(serve: &Path, dir: &Path, traced: bool) -> Result<Cluster, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut cluster = Cluster {
            dir: dir.to_path_buf(),
            worker: None,
            router: None,
        };
        let mut worker_args = vec!["--socket", WORKER_SOCK, "--workers", "1"];
        let mut router_args = vec![
            "--router",
            "--socket",
            ROUTER_SOCK,
            "--backend",
            "unix:w.sock",
        ];
        if traced {
            worker_args.extend(["--access-log", WORKER_LOG]);
            router_args.extend(["--access-log", ROUTER_LOG]);
        }
        cluster.worker = Some(cluster.spawn(serve, &worker_args, "worker.err", traced)?);
        let mut probe = cluster.wait_for(WORKER_SOCK)?;
        let health = probe.admin("health")?;
        if !health.contains("\"status\":\"ok\"") {
            return Err(format!("worker not healthy: {health}"));
        }
        cluster.router = Some(cluster.spawn(serve, &router_args, "router.err", false)?);
        let mut probe = cluster.wait_for(ROUTER_SOCK)?;
        let census = probe.admin("health")?;
        let census: serde_json::Value = serde_json::from_str(&census)
            .map_err(|e| format!("router health unparseable: {e:?}"))?;
        let shards = census.get("shards").and_then(|s| s.as_seq()).unwrap_or(&[]);
        let healthy = shards.len() == 1
            && shards[0].get("health").and_then(|h| h.as_str()) == Some("ok")
            && shards[0].get("endpoint").and_then(|e| e.as_str()) == Some("unix:w.sock");
        if !healthy {
            return Err("router census does not show one healthy shard on the worker".into());
        }
        Ok(cluster)
    }

    fn spawn(
        &self,
        serve: &Path,
        args: &[&str],
        err: &str,
        profiled: bool,
    ) -> Result<Child, String> {
        let stderr = std::fs::File::create(self.dir.join(err)).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(serve);
        cmd.args(args)
            .current_dir(&self.dir)
            .env("AURORA_THREADS", "1")
            .env("TMPDIR", &self.dir)
            .env_remove("AURORA_HOST_PROFILE")
            .env_remove("AURORA_ALLOC_PROFILE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        if profiled {
            cmd.env("AURORA_HOST_PROFILE", "1")
                .env("AURORA_ALLOC_PROFILE", "1");
        }
        cmd.spawn()
            .map_err(|e| format!("spawn {}: {e}", serve.display()))
    }

    /// Polls until `sock` accepts a connection.
    fn wait_for(&mut self, sock: &str) -> Result<Conn, String> {
        let path = self.dir.join(sock);
        let deadline = Instant::now() + READY_BUDGET;
        loop {
            if let Ok(conn) = Conn::connect(&path) {
                return Ok(conn);
            }
            for child in [&mut self.worker, &mut self.router].into_iter().flatten() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("daemon exited during start-up: {status}"));
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("{} never accepted a connection", path.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A client connection to the router.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.dir.join(ROUTER_SOCK))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The worker's peak resident set (`VmHWM`), MiB.
    pub fn worker_peak_rss_mib(&self) -> Result<f64, String> {
        let pid = self.worker.as_ref().expect("worker running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read worker status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in worker status".into())
    }

    /// SIGTERM to the router, then the worker; waits for both and
    /// requires a clean exit from each.
    pub fn stop(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for (name, child) in [
            ("router", self.router.take()),
            ("worker", self.worker.take()),
        ] {
            let Some(mut child) = child else { continue };
            unsafe {
                kill(child.id() as i32, SIGTERM);
            }
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => result = Err(format!("{name} exited with {status}")),
                Err(e) => result = Err(format!("wait for {name}: {e}")),
            }
        }
        result
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for mut child in [self.router.take(), self.worker.take()]
            .into_iter()
            .flatten()
        {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A blocking NDJSON connection: one line out, one line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
}

impl Conn {
    fn connect(path: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(path).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            out: Vec::new(),
        })
    }

    /// Sends `line` and reads the reply into `reply` (newline stripped).
    pub fn roundtrip(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        match self.reader.read_line(reply) {
            Ok(0) => Err("connection closed by the daemon".into()),
            Ok(_) if reply.ends_with('\n') => {
                reply.pop();
                Ok(())
            }
            Ok(_) => Err("truncated reply".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    pub fn admin(&mut self, command: &str) -> Result<String, String> {
        let mut reply = String::new();
        self.roundtrip(&format!("{{\"id\":1,\"admin\":\"{command}\"}}"), &mut reply)?;
        Ok(reply)
    }
}

//! Running jobs under timing, and the per-layer figures read from them.
//!
//! Every call into the program is timed here, from outside. A *pass* is
//! one execution of a workload's round in one of three modes: plain (the
//! end-to-end numbers), kernel-timed (sort closures wrapped with timers)
//! and traced (kernel-timed with full trace retention, then exported and
//! profiled).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use exo_rt::trace::{chrome_trace_json, jsonl_string, TraceConfig};
use exo_rt::{NodeId, RtConfig, RunReport};
use exo_shuffle::{run_shuffle, ShuffleJob, ShuffleVariant};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration, SimTime};
use exo_sort::{sort_job, SortSpec};

use crate::check::{check_sort_outputs, input_digest, Digest};

/// How a pass runs its jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Timed,
    Traced,
}

/// Wall time and call counts of the sort kernels (the `ShuffleJob` map,
/// combine and reduce closures) during one pass.
#[derive(Debug, Default)]
pub struct Kernels {
    map_calls: AtomicU64,
    map_ns: AtomicU64,
    merge_calls: AtomicU64,
    merge_ns: AtomicU64,
    reduce_calls: AtomicU64,
    reduce_ns: AtomicU64,
    real_bytes: AtomicU64,
}

fn tick(calls: &AtomicU64, ns: &AtomicU64, t0: Instant) {
    calls.fetch_add(1, Ordering::Relaxed);
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl Kernels {
    /// Wraps the job's closures so every call is counted and timed.
    pub fn wrap(self: &Arc<Self>, mut job: ShuffleJob) -> ShuffleJob {
        let (map, k) = (job.map.clone(), self.clone());
        job.map = Arc::new(move |m, r, rng| {
            let t0 = Instant::now();
            let out = map(m, r, rng);
            tick(&k.map_calls, &k.map_ns, t0);
            let bytes: usize = out.iter().map(|p| p.data.len()).sum();
            k.real_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            out
        });
        let (combine, k) = (job.combine.clone(), self.clone());
        job.combine = Arc::new(move |blocks| {
            let t0 = Instant::now();
            let out = combine(blocks);
            tick(&k.merge_calls, &k.merge_ns, t0);
            out
        });
        let (reduce, k) = (job.reduce.clone(), self.clone());
        job.reduce = Arc::new(move |r, blocks| {
            let t0 = Instant::now();
            let out = reduce(r, blocks);
            tick(&k.reduce_calls, &k.reduce_ns, t0);
            out
        });
        job
    }

    /// Seconds spent in kernels so far.
    pub fn total_s(&self) -> f64 {
        let ns = self.map_ns.load(Ordering::Relaxed)
            + self.merge_ns.load(Ordering::Relaxed)
            + self.reduce_ns.load(Ordering::Relaxed);
        ns as f64 / 1e9
    }
}

/// One execution of a workload's round: its mode, kernel timers and the
/// per-layer figures gathered so far.
pub struct Pass {
    pub mode: Mode,
    pub kernels: Arc<Kernels>,
    /// Per-layer figures summed over the pass's runs.
    pub layers: Layers,
}

impl Pass {
    pub fn new(mode: Mode) -> Pass {
        Pass {
            mode,
            kernels: Arc::new(Kernels::default()),
            layers: Layers::default(),
        }
    }

    /// The job as this pass runs it: kernel-timed unless plain.
    pub fn job(&self, job: ShuffleJob) -> ShuffleJob {
        match self.mode {
            Mode::Plain => job,
            Mode::Timed | Mode::Traced => self.kernels.wrap(job),
        }
    }

    /// Turns on trace retention in a traced pass.
    pub fn configure(&self, cfg: &mut RtConfig) {
        if self.mode == Mode::Traced {
            cfg.trace = TraceConfig::on();
        }
    }

    /// Folds one finished run into the pass's per-layer figures: its
    /// engine time (timed span minus the kernel time within it), events
    /// dispatched and runtime/store counters; in a traced pass also the
    /// trace's export and profiling cost.
    pub fn record(&mut self, run: &RunRecord, kernel_s: f64, caps: &exo_sim::DeviceCaps) {
        let l = &mut self.layers;
        l.add("rt.engine_s", run.span_s - kernel_s);
        l.add("sim.events", run.events as f64);
        let m = &run.report.metrics;
        l.add("rt.tasks_completed", m.tasks_completed as f64);
        l.add("rt.tasks_reexecuted", m.tasks_reexecuted as f64);
        l.add("rt.objects_reconstructed", m.objects_reconstructed as f64);
        l.add("rt.net_ops", m.net_ops as f64);
        l.add("rt.net_gb", gb(m.net_bytes));
        l.add("rt.disk_read_gb", gb(m.disk_read_bytes));
        l.add("rt.disk_write_gb", gb(m.disk_write_bytes));
        let s = &m.store;
        l.add("store.spilled_gb", gb(s.spilled_bytes));
        l.add("store.spill_files", s.spill_files as f64);
        l.add("store.restored_gb", gb(s.restored_bytes));
        l.add("store.restore_ops", s.restore_ops as f64);
        l.add("store.fallback_gb", gb(s.fallback_bytes));
        l.add("store.spill_writes_elided", s.spill_writes_elided as f64);
        l.add("store.evicted_unwritten", s.evicted_unwritten as f64);
        l.max("store.peak_used_gb", gb(s.peak_used));
        if let Some(w) = &run.report.incidents {
            l.add("watch.incidents", w.len() as f64);
        }
        if let Some(live) = &run.report.live {
            l.add("live.snapshots", live.len() as f64);
        }
        if self.mode != Mode::Traced {
            return;
        }
        let events = &run.report.trace;
        l.add("trace.events", events.len() as f64);
        let t0 = Instant::now();
        std::hint::black_box(chrome_trace_json(events));
        l.add("trace.chrome_export_s", t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(jsonl_string(events));
        l.add("trace.jsonl_export_s", t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let profile = exo_prof::profile(events, caps);
        l.add("prof.profile_s", t0.elapsed().as_secs_f64());
        l.add("prof.trace_events_in", events.len() as f64);
        std::hint::black_box(profile);
    }

    /// Adds the kernel figures; call once after the pass's last run.
    pub fn finish_kernels(&mut self) {
        let k = &self.kernels;
        let l = &mut self.layers;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        l.add("sort.map_calls", load(&k.map_calls));
        l.add("sort.map_s", load(&k.map_ns) / 1e9);
        l.add("sort.merge_calls", load(&k.merge_calls));
        l.add("sort.merge_s", load(&k.merge_ns) / 1e9);
        l.add("sort.reduce_calls", load(&k.reduce_calls));
        l.add("sort.reduce_s", load(&k.reduce_ns) / 1e9);
        l.add("sort.real_gb", load(&k.real_bytes) / 1e9);
    }
}

/// Named per-layer figures.
#[derive(Clone, Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// One call into `exo_rt::run` or `exo_rt::run_service`.
pub struct RunRecord {
    pub report: RunReport,
    /// Wall seconds from the call to its last output being ready, minus
    /// any output checking done inside that span.
    pub span_s: f64,
    /// Engine events and commands dispatched during the call.
    pub events: u64,
}

/// A node kill: `node` dies at `at_s` virtual seconds and restarts
/// `restart_s` seconds later.
#[derive(Clone, Copy, Debug)]
pub struct Kill {
    pub node: usize,
    pub at_s: u64,
    pub restart_s: u64,
}

/// A sort run alone on its cluster.
#[derive(Clone, Copy, Debug)]
pub struct SortRun {
    pub node: NodeSpec,
    pub nodes: usize,
    /// Per-node object-store capacity, when not the node's default.
    pub store_bytes: Option<u64>,
    pub spec: SortSpec,
    pub variant: ShuffleVariant,
    pub kill: Option<Kill>,
}

/// The outcome of one timed job.
#[derive(Clone, Debug)]
pub struct JobOut {
    pub logical_gb: f64,
    /// Wall seconds the job was timed for.
    pub span_s: f64,
    /// Simulated job completion time.
    pub jct_s: f64,
    pub check: Result<(), String>,
}

/// Expected input digests, computed once per distinct input.
#[derive(Default)]
pub struct Digests(BTreeMap<(u64, usize, u64, u64), Digest>);

impl Digests {
    pub fn get(&mut self, spec: &SortSpec) -> Digest {
        let key = (spec.data_bytes, spec.num_maps, spec.scale, spec.seed);
        *self.0.entry(key).or_insert_with(|| input_digest(spec))
    }
}

impl SortRun {
    fn config(&self) -> RtConfig {
        let mut cfg = RtConfig::new(ClusterSpec::homogeneous(self.node, self.nodes));
        cfg.object_store_capacity = self.store_bytes;
        cfg
    }

    /// Device capacities the profiler classifies against.
    fn caps(&self) -> exo_sim::DeviceCaps {
        let mut caps = self.config().cluster.device_caps();
        if let Some(b) = self.store_bytes {
            for n in &mut caps.per_node {
                n.store_bytes = b;
            }
        }
        caps
    }

    /// Runs the sort and checks its output. The job is timed from the
    /// call into the runtime until its last output is ready; the output
    /// is then fetched and checked one partition at a time.
    pub fn run(&self, pass: &mut Pass, digests: &mut Digests) -> JobOut {
        let mut cfg = self.config();
        pass.configure(&mut cfg);
        let job = pass.job(sort_job(self.spec));
        let expected = digests.get(&self.spec);
        let (kill, variant, parts) = (self.kill, self.variant, self.spec.num_reduces);
        let kernel0 = pass.kernels.total_s();
        let e0 = exo_sim::dispatch_total();
        let t0 = Instant::now();
        let (report, (ready, jct_s, check)) = exo_rt::run(cfg, move |rt| {
            if let Some(k) = kill {
                rt.kill_node(
                    NodeId(k.node),
                    SimTime(k.at_s * 1_000_000),
                    Some(SimDuration::from_secs(k.restart_s)),
                );
            }
            let s0 = rt.now();
            let outs = run_shuffle(rt, &job, variant);
            rt.wait_all(&outs);
            let ready = Instant::now();
            let jct_s = (rt.now() - s0).as_secs_f64();
            (ready, jct_s, check_sort_outputs(rt, &outs, parts, expected))
        });
        let span_s = (ready - t0).as_secs_f64();
        let events = exo_sim::dispatch_total() - e0;
        let kernel_s = pass.kernels.total_s() - kernel0;
        let record = RunRecord {
            report,
            span_s,
            events,
        };
        pass.record(&record, kernel_s, &self.caps());
        pass.layers.add(
            variant_tasks(variant),
            record.report.metrics.tasks_completed as f64,
        );
        JobOut {
            logical_gb: gb(self.spec.data_bytes),
            span_s,
            jct_s,
            check,
        }
    }
}

/// The per-layer name counting tasks of a shuffle variant.
pub fn variant_tasks(v: ShuffleVariant) -> &'static str {
    match v {
        ShuffleVariant::Simple => "core.tasks_simple",
        ShuffleVariant::Merge { .. } => "core.tasks_merge",
        ShuffleVariant::Push { .. } => "core.tasks_push",
        ShuffleVariant::PushStar { .. } => "core.tasks_push_star",
    }
}

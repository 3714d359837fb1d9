//! The three workloads. Each is a fixed list of shuffle jobs generated
//! from the seed; a *round* runs the whole list once, so every round
//! attempts the same operations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use exo_agg::{pageview_job, PageviewSpec};
use exo_ml::{exoshuffle_training, unshuffled_training, DatasetSpec, TrainConfig};
use exo_rt::live::LiveConfig;
use exo_rt::trace::IncidentKind;
use exo_rt::{JobParams, RtConfig, TenantId, TenantQuota, WatchConfig};
use exo_shuffle::{run_shuffle, ShuffleJob, ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration, SplitMix64};
use exo_sort::{sort_job, SortSpec};

use crate::check::{add_state_views, check_sort_outputs, expected_lang_views};
use crate::exec::{gb, variant_tasks, Digests, JobOut, Kill, Pass, RunRecord, SortRun};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    XlShuffle,
    OocSort,
    MtService,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "xl_shuffle" => Some(Workload::XlShuffle),
            "ooc_sort" => Some(Workload::OocSort),
            "mt_service" => Some(Workload::MtService),
            _ => None,
        }
    }
}

/// What one round produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    /// Logical GB shuffled by the succeeded timed jobs, and the wall
    /// seconds they were timed for.
    pub gb: f64,
    pub span_s: f64,
    /// Simulated JCTs of the clean jobs.
    pub clean_jct_s: Vec<f64>,
    /// JCT(with kill) − JCT(same job, clean), per kill job.
    pub recovery_s: Vec<f64>,
    /// Every simulated JCT in job order; rounds must repeat it exactly.
    pub jcts: Vec<f64>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Round {
    fn add(&mut self, out: &JobOut) {
        self.attempted += 1;
        self.gb += out.logical_gb;
        self.span_s += out.span_s;
        self.jcts.push(out.jct_s);
        if let Err(e) = &out.check {
            self.errors.push(e.clone());
        }
    }

    fn clean(&mut self, out: &JobOut) {
        self.add(out);
        self.clean_jct_s.push(out.jct_s);
    }

    fn kill(&mut self, out: &JobOut, clean: &JobOut) {
        self.add(out);
        self.recovery_s.push(out.jct_s - clean.jct_s);
    }
}

/// A workload's job list, generated from the seed.
pub enum Plan {
    Xl(XlPlan),
    Ooc(OocPlan),
    Mt(MtPlan),
}

impl Plan {
    pub fn new(w: Workload, seed: u64, quick: bool) -> Plan {
        match w {
            Workload::XlShuffle => Plan::Xl(XlPlan::new(seed, quick)),
            Workload::OocSort => Plan::Ooc(OocPlan::new(seed, quick)),
            Workload::MtService => Plan::Mt(MtPlan::new(seed, quick)),
        }
    }

    /// Runs the workload's smallest job once, untimed.
    pub fn warm_up(&self, digests: &mut Digests) {
        let mut pass = Pass::new(crate::exec::Mode::Plain);
        let out = match self {
            Plan::Xl(p) => p.small.run(&mut pass, digests),
            Plan::Ooc(p) => p.clean[0].run(&mut pass, digests),
            Plan::Mt(p) => {
                p.stream(&p.warm_up, &mut pass, &mut Round::default());
                return;
            }
        };
        std::hint::black_box(out);
    }

    pub fn round(&self, pass: &mut Pass, digests: &mut Digests) -> Round {
        let mut round = Round::default();
        match self {
            Plan::Xl(p) => {
                let small = p.small.run(pass, digests);
                round.clean(&small);
                round.clean(&p.large.run(pass, digests));
                round.kill(&p.small_kill.run(pass, digests), &small);
            }
            Plan::Ooc(p) => {
                for (clean, kill) in p.clean.iter().zip(&p.kill) {
                    let c = clean.run(pass, digests);
                    round.clean(&c);
                    round.kill(&kill.run(pass, digests), &c);
                }
                // The known fault runs last and counts as attempted; a
                // panic counts it as failed. It stays out of every other
                // metric either way.
                round.attempted += 1;
                let r = catch_unwind(AssertUnwindSafe(|| p.known_fault.run(pass, digests)));
                match r {
                    Ok(out) => {
                        if let Err(e) = out.check {
                            round.errors.push(e);
                        }
                    }
                    Err(_) => round.failed += 1,
                }
            }
            Plan::Mt(p) => {
                p.stream(&p.jobs, pass, &mut round);
                let clean = p.twin.run(pass, digests);
                round.add(&clean);
                round.kill(&p.twin_kill.run(pass, digests), &clean);
            }
        }
        pass.finish_kernels();
        round
    }
}

/// Records' seed of job `k` under the base seed `seed`, so each job
/// sorts different records.
fn job_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// `xl_shuffle`: ES-simple sorts on the CloudSort geometry — 100
/// d3.2xlarge nodes with the 100 TB record dataset scaled to the
/// partition count (31.25 GB per partition) — at 200 and 400
/// partitions, plus the 200-partition job again with node 3 killed at
/// 200 s and restarted 10 s later.
///
/// The seed draws each job's size within 2% above nominal. The record
/// keys are fixed per job: at this scale the simulated JCT is bimodal in
/// the key draw (about 1010 s or 1260 s at 400 partitions), so seeded
/// keys would make every simulated figure flip between the modes.
pub struct XlPlan {
    pub small: SortRun,
    pub large: SortRun,
    pub small_kill: SortRun,
}

impl XlPlan {
    fn new(seed: u64, quick: bool) -> XlPlan {
        let (small, large) = if quick { (50, 100) } else { (200, 400) };
        let mut rng = SplitMix64::new(seed);
        let mut sort = |partitions: usize, k: u64| {
            let nominal = 100_000_000_000_000 / 3200 * partitions as u64;
            let data_bytes = (nominal as f64 * (1.0 + 0.02 * rng.next_f64())) as u64;
            SortRun {
                node: NodeSpec::d3_2xlarge(),
                nodes: 100,
                store_bytes: None,
                spec: SortSpec {
                    data_bytes,
                    num_maps: partitions,
                    num_reduces: partitions,
                    // ~50 MB of real records per job.
                    scale: nominal / 50_000_000,
                    seed: job_seed(0, k),
                },
                variant: ShuffleVariant::Simple,
                kill: None,
            }
        };
        let small = sort(small, 0);
        XlPlan {
            small,
            large: sort(large, 1),
            small_kill: SortRun {
                kill: Some(Kill {
                    node: 3,
                    at_s: 200,
                    restart_s: 10,
                }),
                ..small
            },
        }
    }
}

/// `ooc_sort`: 40 GB sorts on 8 d3.2xlarge nodes with a 1 GB store per
/// node (about 100 MB of real records per job), each variant clean and
/// with node 3 killed at 10 s and restarted 10 s later; then the known
/// fault: ES-push with node 3 killed at 20 s, on fixed records.
///
/// As on `xl_shuffle`, the seed draws each job's size within 2% above
/// nominal and the record keys are fixed per job: the recovery time
/// after a kill swings by a tenth between key draws.
pub struct OocPlan {
    pub clean: Vec<SortRun>,
    pub kill: Vec<SortRun>,
    pub known_fault: SortRun,
}

/// Records' seed of the known-fault job; fixed so the job fails the
/// same way whatever the workload seed.
const KNOWN_FAULT_SEED: u64 = 7;

impl OocPlan {
    fn new(seed: u64, quick: bool) -> OocPlan {
        let run = |data_bytes: u64, partitions: usize, seed: u64, variant, kill| SortRun {
            node: NodeSpec::d3_2xlarge(),
            nodes: 8,
            store_bytes: Some(1_000_000_000),
            spec: SortSpec {
                data_bytes,
                num_maps: partitions,
                num_reduces: partitions,
                scale: 400,
                seed,
            },
            variant,
            kill,
        };
        let (data, parts, kill_at): (u64, usize, u64) = if quick {
            (4_000_000_000, 16, 2)
        } else {
            (40_000_000_000, 64, 10)
        };
        let at = |at_s| {
            Some(Kill {
                node: 3,
                at_s,
                restart_s: 10,
            })
        };
        let variants = [
            ShuffleVariant::Simple,
            ShuffleVariant::Merge { factor: 4 },
            ShuffleVariant::Push { factor: 4 },
            ShuffleVariant::PushStar { map_parallelism: 2 },
        ];
        let mut rng = SplitMix64::new(seed);
        let clean = (0..4)
            .map(|k| {
                let size = (data as f64 * (1.0 + 0.02 * rng.next_f64())) as u64;
                run(size, parts, job_seed(0, k), variants[k as usize], None)
            })
            .collect::<Vec<_>>();
        let kill = clean
            .iter()
            .map(|c| SortRun {
                kill: at(kill_at),
                ..*c
            })
            .collect();
        OocPlan {
            clean,
            kill,
            known_fault: run(
                40_000_000_000,
                64,
                KNOWN_FAULT_SEED,
                ShuffleVariant::Push { factor: 4 },
                at(20),
            ),
        }
    }
}

/// Job archetypes of the service stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sort,
    Agg,
    Ml,
}

/// One submission of the service stream.
#[derive(Clone, Copy, Debug)]
pub struct MtJob {
    pub kind: Kind,
    pub tenant: u32,
    pub priority: bool,
    /// Virtual gap slept before submitting, µs.
    pub gap_us: u64,
    /// Logical input bytes.
    pub bytes: u64,
    pub seed: u64,
}

/// `mt_service`: an open-loop stream of sort, aggregation and ML-loader
/// jobs from three weighted tenants on 4 r6i.2xlarge nodes, with the
/// watch detectors and live snapshots on; then a sort alone on the same
/// cluster, clean and with node 1 killed, for the recovery figure.
pub struct MtPlan {
    pub nodes: usize,
    pub jobs: Vec<MtJob>,
    /// One job of each kind at the smallest size, run as the warm-up.
    pub warm_up: Vec<MtJob>,
    pub twin: SortRun,
    pub twin_kill: SortRun,
}

/// Samples in an ML-loader job's dataset, and epochs trained.
const ML_SAMPLES: usize = 10_000;
const ML_EPOCHS: usize = 2;

/// The midpoints of `n` equal-width strata of [0, 1), in seeded order.
/// Every seed gets the same set of values, so the stream's size and gap
/// distributions stay put while which job gets which value changes.
fn strata(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
    for i in (1..n).rev() {
        u.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    u
}

impl MtPlan {
    fn new(seed: u64, quick: bool) -> MtPlan {
        let (n, base, max): (usize, f64, f64) = if quick {
            (12, 250_000_000.0, 1_500_000_000.0)
        } else {
            (300, 1_000_000_000.0, 6_000_000_000.0)
        };
        const MEAN_GAP_US: f64 = 5_000_000.0;
        let mut rng = SplitMix64::new(seed);
        // Sizes are stratified per kind, so every kind gets the same set
        // of sizes whatever the seed.
        let per_kind = n.div_ceil(3);
        let sizes: Vec<Vec<f64>> = (0..3).map(|_| strata(&mut rng, per_kind)).collect();
        let gaps = strata(&mut rng, n);
        let jobs: Vec<MtJob> = (0..n)
            .map(|k| MtJob {
                kind: [Kind::Sort, Kind::Agg, Kind::Ml][k % 3],
                // Tenants take turns by whole triples of kinds, so each
                // tenant submits every kind.
                tenant: ((k / 3) % 3) as u32,
                // Every 7th job is an interactive, priority-lane job.
                priority: k % 7 == 6,
                // Inter-arrival gaps spread evenly over 0.75 to 1.25 times
                // the mean, except that the first two jobs arrive
                // together: the runtime enforces tenant cpu quotas only
                // once two jobs have overlapped.
                gap_us: if k == 1 {
                    0
                } else {
                    ((0.75 + gaps[k] / 2.0) * MEAN_GAP_US) as u64
                },
                // Bounded Pareto sizes (alpha 1.3), capped at `max`.
                bytes: (base * (1.0 - sizes[k % 3][k / 3]).powf(-1.0 / 1.3)).min(max) as u64,
                seed: rng.next_u64(),
            })
            .collect();
        let twin = SortRun {
            node: NodeSpec::r6i_2xlarge(),
            nodes: 4,
            store_bytes: None,
            spec: SortSpec {
                data_bytes: 3_000_000_000,
                num_maps: 12,
                num_reduces: 12,
                scale: 300,
                seed: job_seed(seed, n as u64),
            },
            variant: ShuffleVariant::PushStar { map_parallelism: 2 },
            kill: None,
        };
        let warm_up = (0..3)
            .map(|k| MtJob {
                bytes: base as u64,
                gap_us: 0,
                ..jobs[k]
            })
            .collect();
        MtPlan {
            nodes: 4,
            jobs,
            warm_up,
            twin,
            twin_kill: SortRun {
                kill: Some(Kill {
                    node: 1,
                    at_s: 2,
                    restart_s: 10,
                }),
                ..twin
            },
        }
    }

    /// The tenants: tenant 0 is the heavy batch tenant (double weight,
    /// half the cpu slots), tenants 1 and 2 share the rest equally.
    fn tenants(&self) -> Vec<(TenantId, TenantQuota)> {
        let slots = (self.nodes * 8) as f64;
        let quota = |weight: u32, share: f64, store_gb: u64| TenantQuota {
            weight,
            cpu_slots: Some((slots * share) as usize),
            store_bytes: Some(store_gb * 1_000_000_000),
        };
        vec![
            (TenantId(0), quota(2, 0.5, 16)),
            (TenantId(1), quota(1, 0.375, 8)),
            (TenantId(2), quota(1, 0.375, 8)),
        ]
    }

    fn config(&self, pass: &Pass) -> RtConfig {
        let tenants = self.tenants();
        let mut cfg = RtConfig::new(ClusterSpec::homogeneous(
            NodeSpec::r6i_2xlarge(),
            self.nodes,
        ));
        for (t, q) in &tenants {
            cfg = cfg.with_tenant(*t, *q);
        }
        // The isolation detector watches the same cpu quotas the
        // scheduler enforces.
        cfg.watch = Some(WatchConfig {
            tenant_slot_quotas: tenants
                .iter()
                .filter_map(|(t, q)| q.cpu_slots.map(|s| (t.0, s as u32)))
                .collect(),
            ..WatchConfig::default()
        });
        cfg.live = Some(LiveConfig::default());
        pass.configure(&mut cfg);
        cfg
    }

    /// Runs `jobs` as one service stream and checks every output. The
    /// stream is timed from the call into `run_service` until the last
    /// job's output is ready, less the time jobs spent checking outputs
    /// before then (only one driver runs at a time, so checks do not
    /// overlap engine work).
    fn stream(&self, jobs: &[MtJob], pass: &mut Pass, round: &mut Round) {
        let cfg = self.config(pass);
        let caps = cfg.cluster.device_caps();
        let kernels = pass.kernels.total_s();
        let e0 = exo_sim::dispatch_total();
        let t0 = Instant::now();
        let (report, done) = exo_rt::run_service(cfg, |svc| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|&job| {
                    svc.sleep(SimDuration::from_micros(job.gap_us));
                    let params = JobParams {
                        tenant: TenantId(job.tenant),
                        priority: job.priority,
                        label: kind_name(job.kind),
                    };
                    let shuffle = match job.kind {
                        Kind::Sort => Some(pass.job(sort_job(job.sort_spec()))),
                        Kind::Agg => Some(pageview_job(job.agg_spec())),
                        Kind::Ml => None,
                    };
                    svc.submit_job(params, move |rt| job.drive(rt, shuffle))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        let last = done.iter().map(|d| d.result.ready).max().expect("jobs ran");
        let checking: f64 = done
            .iter()
            .filter(|d| d.result.ready < last)
            .map(|d| d.result.check_s)
            .sum();
        let span_s = (last - t0).as_secs_f64() - checking;
        let record = RunRecord {
            span_s,
            events: exo_sim::dispatch_total() - e0,
            report,
        };
        pass.record(&record, pass.kernels.total_s() - kernels, &caps);

        let incidents = record.report.incidents.as_ref().expect("watch is on");
        for i in &incidents.incidents {
            if i.kind == IncidentKind::IsolationViolation {
                round.errors.push(format!(
                    "tenant {:?} isolation violation at {} us: {} running tasks, quota {}",
                    i.tenant, i.t_open_us, i.value, i.threshold
                ));
            }
        }
        round.span_s += span_s;
        for (job, d) in jobs.iter().zip(&done) {
            let jct_s = d.finished_us.saturating_sub(d.submitted_us) as f64 / 1e6;
            round.attempted += 1;
            round.gb += job.logical_gb();
            round.clean_jct_s.push(jct_s);
            round.jcts.push(jct_s);
            pass.layers.add(
                "jobs.admission_wait_s",
                d.admitted_us.saturating_sub(d.submitted_us) as f64 / 1e6,
            );
            pass.layers.add(
                "jobs.queued_admissions",
                (d.admitted_us > d.submitted_us) as u64 as f64,
            );
            if let Err(e) = job.check(&d.result.output) {
                round.errors.push(e);
            }
        }
        if pass.mode == crate::exec::Mode::Traced {
            for stat in exo_prof::job_stats(&record.report.trace) {
                let job = done.iter().position(|d| d.job.0 == stat.job);
                if let Some(j) = job {
                    pass.layers
                        .add(variant_tasks(jobs[j].variant()), stat.tasks_finished as f64);
                }
            }
        }
    }
}

fn kind_name(k: Kind) -> &'static str {
    match k {
        Kind::Sort => "sort",
        Kind::Agg => "agg",
        Kind::Ml => "ml_loader",
    }
}

/// What a job's driver hands back: when its output was ready, how long
/// it then spent fetching and checking, and what it produced.
struct Done {
    ready: Instant,
    check_s: f64,
    output: Output,
}

enum Output {
    Sort(Result<(), String>),
    /// Views per language over all reducer states.
    Agg(Result<[u64; exo_agg::NUM_LANGS], String>),
    /// Final test accuracy.
    Ml(f64),
}

impl MtJob {
    /// Partitions: one map per ~250 MB, between 4 and 16.
    fn partitions(&self) -> usize {
        ((self.bytes / 250_000_000) as usize).clamp(4, 16)
    }

    fn sort_spec(&self) -> SortSpec {
        SortSpec {
            data_bytes: self.bytes,
            num_maps: self.partitions(),
            num_reduces: self.partitions(),
            // ~2 MB of real records per job.
            scale: (self.bytes / 2_000_000).max(1),
            seed: self.seed,
        }
    }

    fn agg_spec(&self) -> PageviewSpec {
        PageviewSpec {
            data_bytes: self.bytes,
            num_maps: self.partitions(),
            num_reduces: (self.partitions() / 2).max(2),
            entries_per_map: 1_000,
            pages: 20_000,
            seed: self.seed,
        }
    }

    fn train_config(&self) -> TrainConfig {
        let sample_bytes = (self.bytes / ML_SAMPLES as u64).clamp(500, 4_000);
        TrainConfig {
            dataset: DatasetSpec::new(ML_SAMPLES, 8, self.seed)
                .with_logical_sample_bytes(sample_bytes),
            epochs: ML_EPOCHS,
            batch_size: 128,
            lr: 0.5,
            variant: ShuffleVariant::Simple,
            window: ShuffleWindow::Full,
            gpu_ns_per_sample: 40_000.0,
        }
    }

    fn variant(&self) -> ShuffleVariant {
        match self.kind {
            Kind::Sort => ShuffleVariant::PushStar { map_parallelism: 2 },
            Kind::Agg | Kind::Ml => ShuffleVariant::Simple,
        }
    }

    fn logical_gb(&self) -> f64 {
        match self.kind {
            Kind::Sort | Kind::Agg => gb(self.bytes),
            Kind::Ml => {
                let d = self.train_config().dataset;
                gb(d.samples as u64 * d.logical_bytes_per_sample * ML_EPOCHS as u64)
            }
        }
    }

    /// The job's driver program; `shuffle` is the sort or aggregation
    /// job to run.
    fn drive(&self, rt: &exo_rt::RtHandle, shuffle: Option<ShuffleJob>) -> Done {
        let shuffled = || {
            let job = shuffle
                .as_ref()
                .expect("sort and aggregation jobs carry a shuffle");
            let outs = run_shuffle(rt, job, self.variant());
            rt.wait_all(&outs);
            (Instant::now(), outs)
        };
        let (ready, output) = match self.kind {
            Kind::Sort => {
                let (ready, outs) = shuffled();
                let expected = crate::check::input_digest(&self.sort_spec());
                let r = check_sort_outputs(rt, &outs, self.partitions(), expected);
                (ready, Output::Sort(r))
            }
            Kind::Agg => {
                let (ready, outs) = shuffled();
                let mut views = [0u64; exo_agg::NUM_LANGS];
                let r = outs.iter().try_for_each(|r| {
                    let p = rt.get_one(r).map_err(|e| format!("fetch: {e:?}"))?;
                    add_state_views(&mut views, &p.data)
                });
                (ready, Output::Agg(r.map(|()| views)))
            }
            Kind::Ml => {
                let report = exoshuffle_training(rt, &self.train_config());
                let acc = report.accuracy.last().copied().unwrap_or(0.0);
                (Instant::now(), Output::Ml(acc))
            }
        };
        Done {
            ready,
            check_s: ready.elapsed().as_secs_f64(),
            output,
        }
    }

    /// Compares the job's output with values computed apart from the
    /// program.
    fn check(&self, out: &Output) -> Result<(), String> {
        match out {
            Output::Sort(r) => r.clone(),
            Output::Agg(r) => {
                let views = r.clone()?;
                if views != expected_lang_views(&self.agg_spec()) {
                    return Err("language views differ from the direct fold".into());
                }
                Ok(())
            }
            Output::Ml(acc) => {
                let floor = unshuffled_training(&self.train_config());
                if *acc <= floor {
                    return Err(format!("accuracy {acc} not above unshuffled {floor}"));
                }
                Ok(())
            }
        }
    }
}

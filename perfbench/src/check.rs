//! Output checks computed apart from the program: the expected values
//! come from the input generators and the benchmark's own folds, never
//! from the program's validators.

use exo_agg::PageviewSpec;
use exo_rt::{ObjectRef, RtHandle};
use exo_sort::{gen_records, SortSpec};

const RECORD: usize = 100;
const KEY: usize = 10;
const LANGS: usize = exo_agg::NUM_LANGS;

/// Order-independent digest of a record: a 64-bit mix of its bytes.
/// Digests of a record set add (wrapping), so any permutation of the same
/// records gives the same sum while a lost, duplicated or altered record
/// changes it.
fn record_digest(rec: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for w in rec.chunks(8) {
        let mut b = [0u8; 8];
        b[..w.len()].copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(b)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
    }
    h
}

/// Record count and digest sum of a record set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    records: u64,
    sum: u64,
}

impl Digest {
    fn add(&mut self, records: &[u8]) {
        for rec in records.chunks_exact(RECORD) {
            self.records += 1;
            self.sum = self.sum.wrapping_add(record_digest(rec));
        }
    }
}

/// Real records each map generates: one real record per `scale` logical
/// 100-byte records of the map's share, at least one.
fn records_per_map(spec: &SortSpec) -> usize {
    let logical = spec.data_bytes / spec.num_maps as u64 / RECORD as u64;
    (logical / spec.scale).max(1) as usize
}

/// Digest of the records `gen_records` produces for the whole input,
/// generated one map at a time.
pub fn input_digest(spec: &SortSpec) -> Digest {
    let n = records_per_map(spec);
    let mut d = Digest::default();
    for m in 0..spec.num_maps {
        d.add(&gen_records(spec.seed, m, n));
    }
    d
}

/// Streaming check of sort output, fed one partition at a time in
/// partition order, so only one partition is held at once.
pub struct SortCheck {
    expected: Digest,
    seen: Digest,
    partitions: usize,
    prev_key: Option<[u8; KEY]>,
}

impl SortCheck {
    pub fn new(expected: Digest) -> SortCheck {
        SortCheck {
            expected,
            seen: Digest::default(),
            partitions: 0,
            prev_key: None,
        }
    }

    /// Checks one partition: whole records, ordered by key within it and
    /// after every key of the partitions before it.
    pub fn partition(&mut self, data: &[u8]) -> Result<(), String> {
        let r = self.partitions;
        self.partitions += 1;
        if !data.len().is_multiple_of(RECORD) {
            return Err(format!(
                "partition {r}: {} bytes is not whole records",
                data.len()
            ));
        }
        for rec in data.chunks_exact(RECORD) {
            let key: [u8; KEY] = rec[..KEY].try_into().expect("record holds a key");
            if let Some(prev) = self.prev_key {
                if key < prev {
                    return Err(format!("partition {r}: key out of order"));
                }
            }
            self.prev_key = Some(key);
        }
        self.seen.add(data);
        Ok(())
    }

    /// Checks the partition count and that the output holds exactly the
    /// input records.
    pub fn finish(self, partitions: usize) -> Result<(), String> {
        if self.partitions != partitions {
            return Err(format!(
                "{} partitions, expected {partitions}",
                self.partitions
            ));
        }
        if self.seen.records != self.expected.records {
            return Err(format!(
                "{} records out, {} in",
                self.seen.records, self.expected.records
            ));
        }
        if self.seen.sum != self.expected.sum {
            return Err("output records differ from the input records".into());
        }
        Ok(())
    }
}

/// Fetches sort outputs one partition at a time, in partition order, and
/// checks them against the input's digest.
pub fn check_sort_outputs(
    rt: &RtHandle,
    outs: &[ObjectRef],
    partitions: usize,
    expected: Digest,
) -> Result<(), String> {
    let mut check = SortCheck::new(expected);
    for r in outs {
        let p = rt.get_one(r).map_err(|e| format!("fetch: {e:?}"))?;
        check.partition(&p.data)?;
    }
    check.finish(partitions)
}

/// Views per language, folded directly over the generated pageview log.
pub fn expected_lang_views(spec: &PageviewSpec) -> [u64; LANGS] {
    let mut views = [0u64; LANGS];
    for m in 0..spec.num_maps {
        // Entry layout: u8 lang, u32 page, u32 views.
        for e in exo_agg::workload::gen_entries(spec, m).chunks_exact(9) {
            views[e[0] as usize] += u32::from_le_bytes(e[5..9].try_into().expect("4 bytes")) as u64;
        }
    }
    views
}

/// Adds one reducer state's views per language. State layout: repeated
/// u8 lang, u32 page, u64 views.
pub fn add_state_views(views: &mut [u64; LANGS], state: &[u8]) -> Result<(), String> {
    if !state.len().is_multiple_of(13) {
        return Err(format!(
            "reducer state of {} bytes is not whole entries",
            state.len()
        ));
    }
    for e in state.chunks_exact(13) {
        let lang = e[0] as usize;
        if lang >= LANGS {
            return Err(format!("language {lang} out of range"));
        }
        views[lang] += u64::from_le_bytes(e[5..13].try_into().expect("8 bytes"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_rt::RtConfig;
    use exo_shuffle::{run_shuffle, ShuffleVariant};
    use exo_sim::{ClusterSpec, NodeSpec};
    use exo_sort::sort_job;

    fn spec() -> SortSpec {
        SortSpec {
            data_bytes: 2_000_000_000,
            num_maps: 8,
            num_reduces: 6,
            scale: 10_000,
            seed: 11,
        }
    }

    /// Sorted output of a small run, one buffer per partition.
    fn sorted_output(spec: SortSpec) -> Vec<Vec<u8>> {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
        let (_, outs) = exo_rt::run(cfg, |rt| {
            let refs = run_shuffle(rt, &sort_job(spec), ShuffleVariant::Simple);
            let parts = rt.get(&refs).expect("sort outputs");
            parts.iter().map(|p| p.data.to_vec()).collect::<Vec<_>>()
        });
        outs
    }

    fn check(spec: &SortSpec, parts: &[Vec<u8>]) -> Result<(), String> {
        let mut c = SortCheck::new(input_digest(spec));
        for p in parts {
            c.partition(p)?;
        }
        c.finish(spec.num_reduces)
    }

    #[test]
    fn correct_sort_output_passes() {
        let s = spec();
        let parts = sorted_output(s);
        assert_eq!(check(&s, &parts), Ok(()));
    }

    #[test]
    fn corrupting_one_record_fails_the_check() {
        let s = spec();
        let parts = sorted_output(s);
        let r = parts
            .iter()
            .position(|p| p.len() >= 2 * RECORD)
            .expect("a full partition");

        // A changed body byte keeps the order but not the records.
        let mut body = parts.clone();
        body[r][RECORD + 50] ^= 1;
        assert!(check(&s, &body).is_err());

        // Two records swapped: the same records, out of order.
        let mut order = parts.clone();
        let (first, second) = order[r].split_at_mut(RECORD);
        first.swap_with_slice(&mut second[..RECORD]);
        assert_ne!(order[r], parts[r], "distinct keys");
        assert!(check(&s, &order).is_err());

        // A dropped record.
        let mut lost = parts.clone();
        let len = lost[r].len();
        lost[r].truncate(len - RECORD);
        assert!(check(&s, &lost).is_err());

        // Two partitions swapped: each is ordered, the whole is not.
        let mut swapped = parts;
        let last = swapped.len() - 1;
        swapped.swap(0, last);
        assert!(check(&s, &swapped).is_err());
    }

    #[test]
    fn lang_fold_matches_program_distribution() {
        let spec = PageviewSpec {
            data_bytes: 100_000_000,
            num_maps: 4,
            num_reduces: 2,
            entries_per_map: 500,
            pages: 1_000,
            seed: 5,
        };
        let expected = expected_lang_views(&spec);
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::r6i_2xlarge(), 2));
        let (_, views) = exo_rt::run(cfg, |rt| {
            let refs = run_shuffle(rt, &exo_agg::pageview_job(spec), ShuffleVariant::Simple);
            let mut views = [0u64; LANGS];
            for p in rt.get(&refs).expect("states") {
                add_state_views(&mut views, &p.data).expect("well-formed state");
            }
            views
        });
        assert_eq!(views, expected);
        assert!(expected.iter().sum::<u64>() > 0);
    }
}

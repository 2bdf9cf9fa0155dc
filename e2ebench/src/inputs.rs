//! Seeded workload inputs: file specifications, contents and the request
//! sequence.  The same seed gives the same inputs; the program under test
//! only ever sees what is generated here.

use rtbdisk::{Broadcast, FileId, GeneralizedFileSpec, Station};
use std::collections::BTreeMap;

/// SplitMix64: a tiny, dependency-free seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_B0AD_CA57_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The shape of a workload's station.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub files: u32,
    pub channels: usize,
    pub block_bytes: u32,
    pub max_m: u32,
    pub max_faults: u32,
}

/// Everything a run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub shape: Shape,
    pub specs: Vec<GeneralizedFileSpec>,
    pub contents: BTreeMap<FileId, Vec<u8>>,
    /// The closed loop requests files in this order, cycling.
    pub requests: Vec<FileId>,
    pub rng: Rng,
}

impl Inputs {
    /// Generates a workload's inputs.
    ///
    /// The station's specifications are drawn once per shape, not per
    /// seed: the deadlines, and so every time to file in slots, belong to
    /// the workload, and runs with different seeds stay comparable.  The
    /// seed draws what varies between runs of one workload: the file
    /// contents, the request sequence, and the loss and write streams.
    /// Latency vectors are stretched until the design succeeds (the
    /// stretch is deterministic too).
    pub fn generate(shape: Shape, seed: u64) -> Inputs {
        let mut specs_rng = Rng::new(u64::from(shape.files) << 32 | u64::from(shape.block_bytes));
        let draws: Vec<(u32, u32, u32, u32)> = (0..shape.files)
            .map(|_| {
                (
                    specs_rng.range(1, shape.max_m),
                    specs_rng.range(1, shape.max_faults),
                    specs_rng.range(0, 7),
                    specs_rng.range(1, 4),
                )
            })
            .collect();
        let mut rng = Rng::new(seed);
        let mut stretch = 1.0f64;
        let specs = loop {
            let specs: Vec<GeneralizedFileSpec> = draws
                .iter()
                .enumerate()
                .map(|(i, &(m, r, jitter, step))| {
                    // d^(0) leaves room for the file among its channel's
                    // siblings; each tolerated fault adds at least one
                    // more block time.
                    let base = ((shape.files as f64 / shape.channels as f64) * 2.5 * f64::from(m)
                        + f64::from(jitter)
                        + 4.0)
                        * stretch;
                    let base = base.ceil() as u32;
                    let latencies = (0..=r).map(|j| base + j * (step + m)).collect();
                    GeneralizedFileSpec::new(FileId(i as u32 + 1), m, latencies)
                        .expect("drawn latency vectors are valid")
                        .with_block_bytes(shape.block_bytes)
                })
                .collect();
            if builder(&shape, &specs, &BTreeMap::new()).build().is_ok() {
                break specs;
            }
            stretch *= 1.25;
            assert!(stretch < 100.0, "no feasible stretch for the drawn specs");
        };
        let contents = specs
            .iter()
            .map(|s| (s.id, rng.bytes((s.size_blocks * s.block_bytes) as usize)))
            .collect();
        let requests = (0..4096)
            .map(|_| FileId(rng.range(1, shape.files)))
            .collect();
        Inputs {
            shape,
            specs,
            contents,
            requests,
            rng,
        }
    }

    /// A fresh authenticated station over these inputs.
    pub fn build(&self) -> Station {
        builder(&self.shape, &self.specs, &self.contents)
            .build()
            .expect("the generated inputs were checked to be feasible")
    }

    pub fn spec(&self, file: FileId) -> &GeneralizedFileSpec {
        self.specs
            .iter()
            .find(|s| s.id == file)
            .expect("requests name generated files")
    }
}

fn builder(
    shape: &Shape,
    specs: &[GeneralizedFileSpec],
    contents: &BTreeMap<FileId, Vec<u8>>,
) -> rtbdisk::BroadcastBuilder {
    let mut b = Broadcast::builder()
        .files(specs.iter().cloned())
        .channels(shape.channels)
        .authenticated(true);
    for (id, bytes) in contents {
        b = b.content(*id, bytes.clone());
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        files: 8,
        channels: 2,
        block_bytes: 512,
        max_m: 4,
        max_faults: 2,
    };

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = Inputs::generate(SHAPE, 7);
        let b = Inputs::generate(SHAPE, 7);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.contents, b.contents);
        assert_eq!(a.requests, b.requests);
        let c = Inputs::generate(SHAPE, 8);
        assert_ne!(a.contents, c.contents);
        assert_ne!(a.requests, c.requests);
        // The station itself is the workload's, whatever the seed.
        assert_eq!(a.specs, c.specs);
    }

    #[test]
    fn generated_inputs_respect_the_shape() {
        let inputs = Inputs::generate(SHAPE, 3);
        assert_eq!(inputs.specs.len(), 8);
        for s in &inputs.specs {
            assert!((1..=4).contains(&s.size_blocks));
            assert!(s.max_faults() >= 1 && s.max_faults() <= 2);
            assert_eq!(inputs.contents[&s.id].len(), (s.size_blocks * 512) as usize);
        }
        assert_eq!(inputs.build().channel_count(), 2);
    }
}

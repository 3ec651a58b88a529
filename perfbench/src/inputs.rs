//! Seeded ABST1 inputs: generated from `(dataset, scale, α, seed)` through
//! the public generators and written with `BinaryStreamWriter`.
//!
//! The graph is fixed by the dataset spec; the seed is the deletion
//! placement `trial`, exactly as `DatasetSpec::stream` uses it.  A workload
//! may keep only the leading edges of the generated edge list, so every seed
//! inserts the same edge set and differs only in where deletions fall.

use crate::workloads::Workload;
use abacus_graph::persist::crc32;
use abacus_stream::{
    inject_deletions_fast, BinaryStreamWriter, DatasetSpec, DeletionConfig, GraphStream,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// A generated input file and its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputFile {
    /// Where the file was written.
    pub path: PathBuf,
    /// Stream elements in the file.
    pub elements: u64,
    /// Deletions among them.
    pub deletions: u64,
    /// CRC-32 of the whole file.
    pub crc32: u32,
}

/// The fully dynamic stream over the first `edge_prefix` edges of `spec`'s
/// graph, deletions placed by trial `seed`.  With no prefix this is exactly
/// `spec.stream(alpha, seed)`.
pub fn stream(
    spec: &DatasetSpec,
    alpha: f64,
    seed: u64,
    edge_prefix: Option<usize>,
) -> GraphStream {
    let mut edges = spec.generate_edges();
    if let Some(prefix) = edge_prefix {
        edges.truncate(prefix);
    }
    // The trial seeding `DatasetSpec::stream` documents and uses.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ (0x5EED_0000 + seed));
    inject_deletions_fast(&edges, DeletionConfig::new(alpha), &mut rng)
}

/// Generates `workload`'s input for `seed` into `dir`.
pub fn write(workload: &Workload, seed: u64, dir: &Path) -> io::Result<InputFile> {
    let spec = workload.dataset.spec().scaled(workload.scale);
    let stream = stream(&spec, workload.alpha, seed, workload.edge_prefix);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{seed}.abst", workload.name));
    let mut writer = BinaryStreamWriter::new(BufWriter::new(File::create(&path)?))?;
    for &element in &stream {
        writer.write_element(element)?;
    }
    writer
        .finish()?
        .into_inner()
        .map_err(io::IntoInnerError::into_error)?;
    let bytes = std::fs::read(&path)?;
    Ok(InputFile {
        path,
        elements: stream.len() as u64,
        deletions: stream.iter().filter(|e| e.delta.is_delete()).count() as u64,
        crc32: crc32(&bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_stream::Dataset;

    #[test]
    fn full_prefix_matches_the_public_dataset_stream() {
        let spec = Dataset::MovielensLike.spec();
        assert_eq!(stream(&spec, 0.2, 7, None), spec.stream(0.2, 7));
    }

    #[test]
    fn a_new_seed_moves_deletions_but_not_the_inserted_edges() {
        let mut workload = crate::workloads::find("views-panel").expect("workload exists");
        workload.edge_prefix = Some(3_000);
        let dir = std::env::temp_dir().join(format!("perfbench-inputs-{}", std::process::id()));
        let a = write(&workload, 1, &dir).expect("seed 1 input");
        let b = write(&workload, 2, &dir).expect("seed 2 input");
        let again = write(&workload, 1, &dir).expect("seed 1 again");
        assert_eq!(a.crc32, again.crc32, "a seed reproduces its input");
        assert_ne!(a.crc32, b.crc32, "a new seed changes the input CRC");
        assert_eq!((a.elements, a.deletions), (b.elements, b.deletions));

        let spec = workload.dataset.spec().scaled(workload.scale);
        let inserted = |seed| {
            let mut edges: Vec<_> = stream(&spec, workload.alpha, seed, workload.edge_prefix)
                .into_iter()
                .filter(|e| e.delta.is_insert())
                .map(|e| (e.edge.left, e.edge.right))
                .collect();
            edges.sort_unstable();
            edges
        };
        let deleted_at = |seed| -> Vec<usize> {
            stream(&spec, workload.alpha, seed, workload.edge_prefix)
                .iter()
                .enumerate()
                .filter(|(_, e)| e.delta.is_delete())
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(inserted(1), inserted(2), "same inserted edge set");
        assert_ne!(deleted_at(1), deleted_at(2), "deletions fall elsewhere");
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Graph snapshot (`graph.gsg`) — the patched graph an updatable index
//! was last committed against (DESIGN.md §16).
//!
//! `gsb index` and `gsb compact` write one; `gsb update` reconstructs
//! the *current* graph by replaying each committed delta generation's
//! effective edge edits on top of it, so updates never need the
//! original edge-list file. The whole file is pinned to the manifest by
//! `graph_bytes`/`graph_crc`, making a mismatched or rotten snapshot a
//! typed error rather than a silently wrong delta.
//!
//! Layout: the standard 16-byte header (`GRAPH_MAGIC`, `n`), then one
//! CRC-framed record per vertex `v` holding the delta-coded ascending
//! list of neighbors `w > v` — each edge stored exactly once.
//!
//! Every update and compaction loads the snapshot, so loading is one
//! pass: the whole-file CRC, then each frame's CRC and id bounds, with
//! every decoded edge set straight into both endpoints' adjacency
//! words.

use std::fs;
use std::path::Path;

use gsb_bitset::{words_for, BitSet, WORD_BITS};
use gsb_core::store::{crc32, frame, parse_frame, StoreError};
use gsb_graph::BitGraph;

use crate::format::{
    check_header, decode_id_list, encode_id_list, header_bytes, GRAPH_FILE, GRAPH_MAGIC, HEADER_LEN,
};

/// Serialize a graph into `graph.gsg` bytes.
pub fn encode_graph(g: &BitGraph) -> Vec<u8> {
    let n = g.n();
    let mut out = Vec::new();
    out.extend_from_slice(&header_bytes(GRAPH_MAGIC, n as u32));
    let mut ids = Vec::new();
    let mut payload = Vec::new();
    for v in 0..n {
        ids.clear();
        ids.extend(
            g.neighbors(v)
                .iter_ones()
                .filter(|&w| w > v)
                .map(|w| w as u64),
        );
        payload.clear();
        encode_id_list(&mut payload, &ids);
        out.extend_from_slice(&frame(&payload));
    }
    out
}

/// Decode `graph.gsg` bytes back into a graph; every frame, every id
/// bound, and the exact byte extent are verified. Each stored edge
/// sets its bit in both endpoints' adjacency words directly.
pub fn decode_graph(bytes: &[u8]) -> Result<BitGraph, StoreError> {
    const CTX: &str = "graph snapshot";
    let n = check_header(bytes, GRAPH_MAGIC, CTX)? as usize;
    let mut rows = vec![vec![0u64; words_for(n)]; n];
    let mut pos = HEADER_LEN;
    for v in 0..n {
        let (payload, next) = parse_frame(bytes, pos, CTX)?;
        pos = next;
        let mut p = 0usize;
        let ids = decode_id_list(payload, &mut p, n as u64, CTX)?;
        if p != payload.len() {
            return Err(StoreError::Codec { context: CTX });
        }
        for id in ids {
            let w = id as usize;
            if w <= v {
                return Err(StoreError::Codec { context: CTX });
            }
            rows[v][w / WORD_BITS] |= 1 << (w % WORD_BITS);
            rows[w][v / WORD_BITS] |= 1 << (v % WORD_BITS);
        }
    }
    if pos != bytes.len() {
        return Err(StoreError::Codec { context: CTX });
    }
    Ok(BitGraph::from_rows(
        rows.into_iter()
            .map(|words| BitSet::from_words(n, words))
            .collect(),
    ))
}

/// Read `dir/graph.gsg` and verify it against the manifest's recorded
/// extent and whole-file CRC before decoding.
pub fn read_graph_checked(
    dir: &Path,
    graph_bytes: u64,
    graph_crc: u32,
) -> Result<BitGraph, StoreError> {
    const CTX: &str = "graph snapshot";
    if graph_bytes == 0 {
        return Err(StoreError::Codec { context: CTX });
    }
    let bytes = fs::read(dir.join(GRAPH_FILE)).map_err(StoreError::Io)?;
    if bytes.len() as u64 != graph_bytes {
        return Err(StoreError::Torn {
            context: CTX,
            needed: graph_bytes as usize,
            have: bytes.len(),
        });
    }
    let computed = crc32(&bytes);
    if computed != graph_crc {
        return Err(StoreError::Checksum {
            context: CTX,
            stored: graph_crc,
            computed,
        });
    }
    decode_graph(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip_and_flip_sweep() {
        let g = BitGraph::from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 6), (5, 6)]);
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(back.n(), 7);
        assert_eq!(back.m(), 5);
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(back.has_edge(u, v), g.has_edge(u, v));
            }
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x21;
            assert!(decode_graph(&bad).is_err(), "flip at {i} silently accepted");
        }
        // truncation is torn/typed, not a panic
        assert!(decode_graph(&bytes[..bytes.len() - 1]).is_err());
        // trailing garbage is rejected
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_graph(&long).is_err());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = BitGraph::new(0);
        let bytes = encode_graph(&g);
        assert_eq!(decode_graph(&bytes).unwrap().n(), 0);
    }
}

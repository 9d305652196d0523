//! Compressed loss-range encoding for ACK/NAK feedback.
//!
//! When a receiver reports missing packets it reports *ranges*, not
//! individual sequence numbers, so feedback stays O(ranges) instead of
//! O(packets) — a burst of 10 000 drops costs two words, not ten thousand.
//! The wire format follows srt-rs's `loss_compression.rs` scheme: a flat
//! `u32` list where a singleton loss is its sequence number and a run
//! `[start, end]` (end > start) is `start | RANGE_FLAG` followed by `end`.
//! Sequence numbers must stay below [`RANGE_FLAG`]; an episode never sends
//! 2³¹ packets per flow (30 s at the 1000 Mbps rate cap is ~2.5 M packets).

/// High bit marking the first word of a two-word range.
pub const RANGE_FLAG: u32 = 0x8000_0000;

/// Encodes inclusive loss ranges `(start, end)` word by word into `push`.
///
/// Ranges must be in increasing order, non-overlapping, with
/// `start <= end < RANGE_FLAG` — the form the receiver's gap detector
/// naturally produces.
///
/// # Panics
/// Panics (debug) on malformed input ranges.
pub fn encode_loss_ranges(ranges: &[(u32, u32)], mut push: impl FnMut(u32)) {
    let mut prev_end: Option<u32> = None;
    for &(start, end) in ranges {
        debug_assert!(start <= end, "range ({start}, {end}) inverted");
        debug_assert!(end < RANGE_FLAG, "sequence {end} overflows the flag bit");
        debug_assert!(
            prev_end.is_none_or(|p| start > p),
            "ranges must be increasing and disjoint"
        );
        prev_end = Some(end);
        if start == end {
            push(start);
        } else {
            push(start | RANGE_FLAG);
            push(end);
        }
    }
}

/// Decodes compressed words back into inclusive `(start, end)` ranges,
/// appended to `out`.
///
/// Lenient on malformed trailing data (a flagged start with no end word is
/// treated as a singleton; an end below its start collapses to the start) —
/// a lost or truncated report should degrade, not crash the sender.
pub fn decode_loss_ranges(words: impl IntoIterator<Item = u32>, out: &mut Vec<(u32, u32)>) {
    let mut words = words.into_iter();
    while let Some(word) = words.next() {
        if word & RANGE_FLAG != 0 {
            let start = word & !RANGE_FLAG;
            let end = words.next().unwrap_or(start) & !RANGE_FLAG;
            out.push((start, end.max(start)));
        } else {
            out.push((word, word));
        }
    }
}

/// Total packets covered by a decoded range list.
pub fn ranges_pkt_count(ranges: &[(u32, u32)]) -> u64 {
    ranges
        .iter()
        .map(|&(s, e)| u64::from(e) - u64::from(s) + 1)
        .sum()
}

/// Builds increasing disjoint ranges from a sorted, deduplicated sequence
/// list (test/diagnostic convenience; the simulator's gap detector emits
/// ranges directly).
pub fn ranges_from_seqs(seqs: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &s in seqs {
        match out.last_mut() {
            Some((_, end)) if *end + 1 == s => *end = s,
            _ => out.push((s, s)),
        }
    }
    out
}

/// Expands ranges back to the individual sequence list.
pub fn seqs_from_ranges(ranges: &[(u32, u32)]) -> Vec<u32> {
    ranges.iter().flat_map(|&(s, e)| s..=e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compress_loss_ranges(ranges: &[(u32, u32)]) -> Vec<u32> {
        let mut out = Vec::new();
        encode_loss_ranges(ranges, |w| out.push(w));
        out
    }

    fn decompress_loss_ranges(encoded: &[u32]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        decode_loss_ranges(encoded.iter().copied(), &mut out);
        out
    }

    #[test]
    fn singleton_and_run_encode_as_expected() {
        let enc = compress_loss_ranges(&[(5, 5), (9, 12), (40, 40)]);
        assert_eq!(enc, vec![5, 9 | RANGE_FLAG, 12, 40]);
        assert_eq!(
            decompress_loss_ranges(&enc),
            vec![(5, 5), (9, 12), (40, 40)]
        );
    }

    #[test]
    fn empty_report_is_empty() {
        assert!(compress_loss_ranges(&[]).is_empty());
        assert!(decompress_loss_ranges(&[]).is_empty());
    }

    #[test]
    fn burst_compresses_to_two_words() {
        // 10 000 consecutive drops → one range → two u32s.
        let enc = compress_loss_ranges(&[(1000, 10_999)]);
        assert_eq!(enc.len(), 2);
        assert_eq!(ranges_pkt_count(&decompress_loss_ranges(&enc)), 10_000);
    }

    #[test]
    fn malformed_tail_degrades_gracefully() {
        // Flagged start with no end word → singleton.
        assert_eq!(decompress_loss_ranges(&[7 | RANGE_FLAG]), vec![(7, 7)]);
        // End below start → collapses to the start.
        assert_eq!(decompress_loss_ranges(&[9 | RANGE_FLAG, 3]), vec![(9, 9)]);
    }

    #[test]
    fn seq_list_round_trips_through_ranges() {
        let seqs = vec![1, 2, 3, 7, 9, 10, 11, 12, 20];
        let ranges = ranges_from_seqs(&seqs);
        assert_eq!(ranges, vec![(1, 3), (7, 7), (9, 12), (20, 20)]);
        assert_eq!(seqs_from_ranges(&ranges), seqs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn compress_decompress_round_trips(
            raw in proptest::collection::vec(0u32..500_000, 0..64)
        ) {
            let mut seqs = raw;
            seqs.sort_unstable();
            seqs.dedup();
            let ranges = ranges_from_seqs(&seqs);
            let enc = compress_loss_ranges(&ranges);
            let dec = decompress_loss_ranges(&enc);
            prop_assert_eq!(&dec, &ranges);
            prop_assert_eq!(seqs_from_ranges(&dec), seqs.clone());
            prop_assert_eq!(ranges_pkt_count(&dec), seqs.len() as u64);
        }

        #[test]
        fn encoding_never_longer_than_seq_list(
            raw in proptest::collection::vec(0u32..100_000, 1..64)
        ) {
            let mut seqs = raw;
            seqs.sort_unstable();
            seqs.dedup();
            let enc = compress_loss_ranges(&ranges_from_seqs(&seqs));
            // Worst case (no runs): one word per loss; runs always shrink it.
            prop_assert!(enc.len() <= seqs.len());
        }

        #[test]
        fn encoding_is_o_ranges_not_o_packets(
            start in 0u32..1_000_000, len in 2u32..100_000
        ) {
            let enc = compress_loss_ranges(&[(start, start + len - 1)]);
            prop_assert_eq!(enc.len(), 2);
        }
    }
}

//! Frequency-ordered inverted lists of impact entries.

use authsearch_corpus::DocId;

/// One `⟨d, w_{d,t}⟩` impact pair (8 bytes on disk: 4-byte doc id +
/// 4-byte frequency, the sizes the paper uses when deriving ρ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpactEntry {
    /// Document identifier.
    pub doc: DocId,
    /// `w_{d,t}` — the precomputed Okapi document-side weight.
    pub weight: f32,
}

impl ImpactEntry {
    /// On-disk size of an impact entry.
    pub const BYTES: usize = 8;

    /// Canonical little-endian encoding (doc id, then weight bits) — the
    /// exact bytes hashed into MHT leaves and stored in index records.
    pub fn encode(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.doc.to_le_bytes());
        out[4..].copy_from_slice(&self.weight.to_bits().to_le_bytes());
        out
    }

    /// Inverse of [`ImpactEntry::encode`].
    pub fn decode(bytes: &[u8; 8]) -> ImpactEntry {
        let doc = DocId::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let bits = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        ImpactEntry {
            doc,
            weight: f32::from_bits(bits),
        }
    }
}

/// An inverted list: impact entries sorted by non-increasing weight
/// (ties broken by ascending doc id so index construction is
/// deterministic).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InvertedList {
    entries: Vec<ImpactEntry>,
}

impl InvertedList {
    /// Build from unsorted entries; sorts into canonical impact order.
    pub fn from_entries(mut entries: Vec<ImpactEntry>) -> InvertedList {
        entries.sort_unstable_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .expect("NaN weight in inverted list")
                .then(a.doc.cmp(&b.doc))
        });
        InvertedList { entries }
    }

    /// Build from entries already in canonical order (checked in debug).
    pub fn from_sorted(entries: Vec<ImpactEntry>) -> InvertedList {
        debug_assert!(entries.windows(2).all(|w| {
            w[0].weight > w[1].weight || (w[0].weight == w[1].weight && w[0].doc < w[1].doc)
        }));
        InvertedList { entries }
    }

    /// Number of entries `l_i`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in non-increasing weight order.
    pub fn entries(&self) -> &[ImpactEntry] {
        &self.entries
    }

    /// Entry at position `i`.
    pub fn entry(&self, i: usize) -> ImpactEntry {
        self.entries[i]
    }

    /// The canonical invariant: non-increasing weights.
    pub fn is_frequency_ordered(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].weight >= w[1].weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(doc: DocId, weight: f32) -> ImpactEntry {
        ImpactEntry { doc, weight }
    }

    #[test]
    fn encoding_roundtrip() {
        for entry in [e(0, 0.0), e(42, 0.159), e(u32::MAX, 1.0e-7), e(7, 2.2)] {
            assert_eq!(ImpactEntry::decode(&entry.encode()), entry);
        }
    }

    #[test]
    fn encoding_is_8_bytes_as_paper_assumes() {
        assert_eq!(ImpactEntry::BYTES, 8);
        assert_eq!(e(1, 0.5).encode().len(), 8);
    }

    #[test]
    fn from_entries_sorts_by_weight_desc() {
        let list = InvertedList::from_entries(vec![e(1, 0.1), e(2, 0.9), e(3, 0.5)]);
        let docs: Vec<DocId> = list.entries().iter().map(|x| x.doc).collect();
        assert_eq!(docs, vec![2, 3, 1]);
        assert!(list.is_frequency_ordered());
    }

    #[test]
    fn ties_break_by_doc_id() {
        let list = InvertedList::from_entries(vec![e(9, 0.5), e(3, 0.5), e(6, 0.5)]);
        let docs: Vec<DocId> = list.entries().iter().map(|x| x.doc).collect();
        assert_eq!(docs, vec![3, 6, 9]);
    }

    #[test]
    fn empty_list() {
        let list = InvertedList::from_entries(vec![]);
        assert!(list.is_empty());
        assert!(list.is_frequency_ordered());
    }
}

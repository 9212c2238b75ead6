//! Which images hold each unique file: the image-membership index that
//! Fig. 26's cross-image fractions and perfect-layer carving both read.

use crate::{FileIndex, ImageLayers};
use dhub_model::Digest;

/// The sorted ids of the images holding each slot of a [`FileIndex`]. An
/// image's id is its position in the slice the index was built from.
pub struct ImageIndex {
    /// Slot `s` is held by `ids[starts[s]..starts[s + 1]]`, ascending.
    starts: Vec<usize>,
    ids: Vec<u32>,
}

impl ImageIndex {
    /// Lists every image under the slots of its layers' files, in image
    /// order. Layers `files` did not index contribute nothing.
    pub fn build(images: &[ImageLayers], files: &FileIndex) -> ImageIndex {
        // Two walks over the layers' slot lists, counting then filling.
        // `last[s]` is one past the last image that listed slot `s`, so an
        // image lists a content once however many of its layers hold it;
        // images come in id order, so every slot's ids come out sorted.
        let slots = files.entries().len();
        let walk = |visit: &mut dyn FnMut(u32, u32)| {
            let mut last = vec![0u32; slots];
            for (id, img) in (1u32..).zip(images) {
                let layers = img.layers.iter().filter_map(|ld| files.layer_at(ld));
                for &s in layers.flat_map(|at| files.layer_slots(at)) {
                    let seen = &mut last[s as usize];
                    if *seen != id {
                        *seen = id;
                        visit(s, id - 1);
                    }
                }
            }
        };
        let mut starts = vec![0usize; slots + 1];
        walk(&mut |s, _| starts[s as usize + 1] += 1);
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut fill = starts.clone();
        let mut ids = vec![0u32; starts[slots]];
        walk(&mut |s, id| {
            ids[fill[s as usize]] = id;
            fill[s as usize] += 1;
        });
        ImageIndex { starts, ids }
    }

    /// Every unique file some image holds, as (digest, size, sorted image
    /// ids), in slot order. `files` is the index this one was built over.
    pub fn iter<'a>(
        &'a self,
        files: &'a FileIndex,
    ) -> impl Iterator<Item = (Digest, u64, &'a [u32])> {
        debug_assert_eq!(self.starts.len(), files.entries().len() + 1, "built over another index");
        let slots = files.digests().iter().zip(files.entries()).enumerate();
        slots.map(|(s, (&d, e))| (d, e.size, self.ids_of(s))).filter(|(_, _, ids)| !ids.is_empty())
    }

    /// The sorted ids of the images holding slot `slot`.
    pub(crate) fn ids_of(&self, slot: usize) -> &[u32] {
        &self.ids[self.starts[slot]..self.starts[slot + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_digest::FxHashMap;
    use dhub_model::{FileKind, FileRecord, LayerProfile};

    fn layer(id: u8, tags: &[&str]) -> LayerProfile {
        let file = |t: &&str| FileRecord {
            digest: Digest::of(t.as_bytes()),
            kind: FileKind::AsciiText,
            size: t.len() as u64,
        };
        LayerProfile {
            digest: Digest::of(&[id]),
            fls: tags.iter().map(|t| t.len() as u64).sum(),
            cls: 1,
            dir_count: 1,
            file_count: tags.len() as u64,
            max_depth: 1,
            files: tags.iter().map(file).collect(),
        }
    }

    fn members(index: &ImageIndex, files: &FileIndex) -> FxHashMap<Digest, Vec<u32>> {
        index.iter(files).map(|(d, _, ids)| (d, ids.to_vec())).collect()
    }

    #[test]
    fn lists_each_image_once_and_in_order() {
        let (l1, l2, l3) = (layer(1, &["a", "bb", "a"]), layer(2, &["a", "ccc"]), layer(3, &["bb"]));
        // `l4` is indexed but no image references it: its content is listed
        // under no image, and skipped.
        let l4 = layer(4, &["dddd", "a"]);
        let files = FileIndex::build(&[&l1, &l2, &l3, &l4]);
        let absent = Digest::of(b"not analyzed");
        let images = vec![
            ImageLayers { layers: vec![l2.digest, absent] },
            ImageLayers { layers: vec![l1.digest, l2.digest, l1.digest] },
            ImageLayers { layers: vec![l3.digest] },
        ];
        let index = ImageIndex::build(&images, &files);
        let m = members(&index, &files);
        assert_eq!(m[&Digest::of(b"a")], [0, 1]);
        assert_eq!(m[&Digest::of(b"bb")], [1, 2]);
        assert_eq!(m[&Digest::of(b"ccc")], [0, 1]);
        assert!(!m.contains_key(&Digest::of(b"dddd")));
        let order: Vec<(u64, usize)> = index.iter(&files).map(|(_, size, ids)| (size, ids.len())).collect();
        assert_eq!(order, vec![(1, 2), (2, 2), (3, 2)], "slot order: l1's files, then l2's");
    }

    #[test]
    fn empty_population() {
        let files = FileIndex::build(&[]);
        let index = ImageIndex::build(&[ImageLayers { layers: vec![Digest::of(b"x")] }], &files);
        assert_eq!(index.iter(&files).count(), 0);
    }
}

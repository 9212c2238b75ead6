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
        // Each image's indexed layers, found once and each listed once, and
        // how many images list each layer.
        let (mut ats, mut ends) = (Vec::new(), Vec::with_capacity(images.len()));
        let mut listed = vec![(0usize, 0u32); files.layer_count()];
        for (id, img) in (1u32..).zip(images) {
            for at in img.layers.iter().filter_map(|ld| files.layer_at(ld)) {
                let (n, last) = &mut listed[at];
                if *last != id {
                    (*n, *last) = (*n + 1, id);
                    ats.push(at);
                }
            }
            ends.push(ats.len());
        }
        // Room: one walk per distinct layer, each slot given a place for
        // every image listing the layer — more than it needs when one image
        // holds it in two layers.
        let slots = files.entries().len();
        let mut starts = vec![0usize; slots + 1];
        for (at, &(n, _)) in listed.iter().enumerate().filter(|(_, (n, _))| *n > 0) {
            for &s in files.layer_slots(at) {
                starts[s as usize + 1] += n;
            }
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        // Fill: one walk over the images in id order. `last[s]` is one past
        // the last image that listed slot `s`, so an image lists a content
        // once however many of its layers hold it, and ids come out sorted.
        let (mut fill, mut last) = (starts[..slots].to_vec(), vec![0u32; slots]);
        let mut ids = vec![0u32; starts[slots]];
        let mut from = 0;
        for (id, &to) in (1u32..).zip(&ends) {
            for &s in ats[from..to].iter().flat_map(|&at| files.layer_slots(at)) {
                let s = s as usize;
                if last[s] != id {
                    last[s] = id;
                    ids[fill[s]] = id - 1;
                    fill[s] += 1;
                }
            }
            from = to;
        }
        // Close the room left over: each slot's ids move down to follow
        // the slot before's.
        let mut end = 0;
        for (s, &filled) in fill.iter().enumerate() {
            let room = std::mem::replace(&mut starts[s], end);
            ids.copy_within(room..filled, end);
            end += filled - room;
        }
        starts[slots] = end;
        ids.truncate(end);
        ids.shrink_to_fit();
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

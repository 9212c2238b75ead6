//! Which images hold each unique file: the image-membership index that
//! Fig. 26's cross-image fractions and perfect-layer carving both read.

use crate::ImageLayers;
use dhub_digest::FxHashMap;
use dhub_model::{Digest, LayerProfile};

/// Every unique file of an image population, with its size and the sorted
/// ids of the images that contain it. An image's id is its position in
/// the slice the index was built from.
pub struct ImageIndex {
    /// Digest and size of each slot, in first-seen order.
    files: Vec<(Digest, u64)>,
    /// Slot `s` is held by `ids[starts[s]..starts[s + 1]]`, ascending.
    starts: Vec<usize>,
    ids: Vec<u32>,
    /// Each referenced, analyzed layer's files as slots, in file order.
    layer_slots: FxHashMap<Digest, Vec<u32>>,
}

impl ImageIndex {
    /// Indexes every file of every image's layers, in image order. Layers
    /// missing from `profiles` contribute nothing. A content's size is its
    /// first copy's.
    pub fn build(images: &[ImageLayers], profiles: &FxHashMap<Digest, LayerProfile>) -> ImageIndex {
        let mut slots: FxHashMap<Digest, u32> = FxHashMap::default();
        let mut files = Vec::new();
        // Each layer's files are hashed once, however many images share it.
        let mut layer_slots: FxHashMap<Digest, Vec<u32>> = FxHashMap::default();
        for img in images {
            for ld in &img.layers {
                let Some(lp) = profiles.get(ld) else { continue };
                layer_slots.entry(*ld).or_insert_with(|| {
                    let slot = |f: &dhub_model::FileRecord| {
                        *slots.entry(f.digest).or_insert_with(|| {
                            files.push((f.digest, f.size));
                            (files.len() - 1) as u32
                        })
                    };
                    lp.files.iter().map(slot).collect()
                });
            }
        }

        // Two walks over the slot lists, counting then filling. `last[s]` is
        // one past the last image that listed slot `s`, so an image lists a
        // content once however many of its layers hold it; images come in
        // id order, so every slot's ids come out sorted.
        let walk = |visit: &mut dyn FnMut(u32, u32)| {
            let mut last = vec![0u32; files.len()];
            for (id, img) in (1u32..).zip(images) {
                for s in img.layers.iter().filter_map(|ld| layer_slots.get(ld)).flatten() {
                    let seen = &mut last[*s as usize];
                    if *seen != id {
                        *seen = id;
                        visit(*s, id - 1);
                    }
                }
            }
        };
        let mut starts = vec![0usize; files.len() + 1];
        walk(&mut |s, _| starts[s as usize + 1] += 1);
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut fill = starts.clone();
        let mut ids = vec![0u32; starts[files.len()]];
        walk(&mut |s, id| {
            ids[fill[s as usize]] = id;
            fill[s as usize] += 1;
        });
        ImageIndex { files, starts, ids, layer_slots }
    }

    /// Every unique file as (digest, size, sorted image ids), in the order
    /// the build first met them.
    pub fn iter(&self) -> impl Iterator<Item = (Digest, u64, &[u32])> {
        (self.files.iter().enumerate()).map(|(s, &(d, size))| (d, size, self.ids_of(s)))
    }

    /// The sorted image ids of each file of `layer`, in the layer's file
    /// order; empty if no image references the layer or it was not
    /// analyzed.
    pub fn layer_members(&self, layer: &Digest) -> impl Iterator<Item = &[u32]> {
        let slots = self.layer_slots.get(layer).map_or(&[][..], |s| &s[..]);
        slots.iter().map(|&s| self.ids_of(s as usize))
    }

    fn ids_of(&self, slot: usize) -> &[u32] {
        &self.ids[self.starts[slot]..self.starts[slot + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::{FileKind, FileRecord};

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

    fn members(index: &ImageIndex) -> FxHashMap<Digest, Vec<u32>> {
        index.iter().map(|(d, _, ids)| (d, ids.to_vec())).collect()
    }

    #[test]
    fn lists_each_image_once_and_in_order() {
        let (l1, l2, l3) = (layer(1, &["a", "bb", "a"]), layer(2, &["a", "ccc"]), layer(3, &["bb"]));
        let mut profiles = FxHashMap::default();
        for l in [&l1, &l2, &l3] {
            profiles.insert(l.digest, l.clone());
        }
        let absent = Digest::of(b"not analyzed");
        let images = vec![
            ImageLayers { layers: vec![l2.digest, absent] },
            ImageLayers { layers: vec![l1.digest, l2.digest, l1.digest] },
            ImageLayers { layers: vec![l3.digest] },
        ];
        let index = ImageIndex::build(&images, &profiles);
        let m = members(&index);
        assert_eq!(m[&Digest::of(b"a")], [0, 1]);
        assert_eq!(m[&Digest::of(b"bb")], [1, 2]);
        assert_eq!(m[&Digest::of(b"ccc")], [0, 1]);
        let order: Vec<(u64, usize)> = index.iter().map(|(_, size, ids)| (size, ids.len())).collect();
        assert_eq!(order, vec![(1, 2), (3, 2), (2, 2)], "first-seen order: l2's files, then l1's");
        let l1_members: Vec<&[u32]> = index.layer_members(&l1.digest).collect();
        assert_eq!(l1_members, [&[0, 1][..], &[1, 2], &[0, 1]]);
        assert_eq!(index.layer_members(&absent).count(), 0);
    }

    #[test]
    fn empty_population() {
        let index = ImageIndex::build(&[], &FxHashMap::default());
        assert_eq!(index.iter().count(), 0);
        assert_eq!(index.layer_members(&Digest::of(b"x")).count(), 0);
    }
}

//! Property-based tests for the external-memory substrate.

use dxh_extmem::{
    Block, BlockId, Cached, Disk, ExtMemError, FileDisk, IoCostModel, Item, MemDisk, SimDisk,
    StorageBackend,
};
use proptest::prelude::*;

fn arb_item() -> impl Strategy<Value = Item> {
    (0..u64::MAX - 1, any::<u64>()).prop_map(|(k, v)| Item::new(k, v))
}

proptest! {
    /// Encoding then decoding any block is the identity.
    #[test]
    fn block_codec_round_trip(
        cap in 1usize..64,
        items in proptest::collection::vec(arb_item(), 0..64),
        tag in any::<u64>(),
        next in proptest::option::of(0u64..1000),
    ) {
        let mut blk = Block::new(cap);
        for it in items.into_iter().take(cap) {
            blk.push(it).unwrap();
        }
        blk.set_tag(tag);
        blk.set_next(next.map(BlockId));
        let mut buf = vec![0u8; Block::encoded_len(cap)];
        blk.encode_into(&mut buf);
        let decoded = Block::decode_from(cap, &buf).unwrap();
        prop_assert_eq!(decoded, blk);
    }

    /// Decoding is total: any bytes give a block no fuller than its
    /// capacity, which re-encodes and decodes to itself, or `Corrupt` —
    /// never a panic.
    #[test]
    fn decode_is_total(
        cap in 1usize..6,
        len_word in 0u64..9,
        tail in proptest::collection::vec(any::<u8>(), 0..140),
    ) {
        let mut buf = len_word.to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        match Block::decode_from(cap, &buf) {
            Ok(blk) => {
                prop_assert!(blk.len() <= cap);
                let mut again = vec![0u8; Block::encoded_len(cap)];
                blk.encode_into(&mut again);
                prop_assert_eq!(Block::decode_from(cap, &again).unwrap(), blk);
            }
            Err(e) => prop_assert!(matches!(e, ExtMemError::Corrupt(_)), "{e:?}"),
        }
    }

    /// MemDisk, FileDisk and SimDisk observe identical ids, contents and
    /// live counts after every op of an arbitrary schedule of allocate /
    /// contiguous allocate / write / free operations.
    #[test]
    fn backends_agree(ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..60)) {
        let mut mem = MemDisk::new(4);
        let mut file = FileDisk::temp(4).unwrap();
        let mut sim = SimDisk::new(4);
        let mut live: Vec<BlockId> = Vec::new();
        for (op, x) in ops {
            match op {
                0 => {
                    let a = mem.allocate().unwrap();
                    prop_assert_eq!(a, file.allocate().unwrap());
                    prop_assert_eq!(a, sim.allocate().unwrap());
                    live.push(a);
                }
                1 => {
                    let n = 1 + (x % 4) as usize;
                    let a = mem.allocate_contiguous(n).unwrap();
                    prop_assert_eq!(a, file.allocate_contiguous(n).unwrap());
                    prop_assert_eq!(a, sim.allocate_contiguous(n).unwrap());
                    live.extend((0..n as u64).map(|i| BlockId(a.raw() + i)));
                }
                2 if !live.is_empty() => {
                    let id = live[(x % live.len() as u64) as usize];
                    let mut blk = Block::new(4);
                    blk.push(Item::new(x % (u64::MAX - 1), x)).unwrap();
                    mem.write(id, &blk).unwrap();
                    file.write(id, &blk).unwrap();
                    sim.write(id, &blk).unwrap();
                }
                3 if !live.is_empty() => {
                    let idx = (x % live.len() as u64) as usize;
                    let id = live.swap_remove(idx);
                    mem.free(id).unwrap();
                    file.free(id).unwrap();
                    sim.free(id).unwrap();
                }
                _ => {}
            }
            prop_assert_eq!(mem.live_blocks(), file.live_blocks());
            prop_assert_eq!(mem.live_blocks(), sim.live_blocks());
            for &id in &live {
                let want = mem.read(id).unwrap();
                prop_assert_eq!(&want, &file.read(id).unwrap());
                prop_assert_eq!(&want, &sim.read(id).unwrap());
            }
        }
    }

    /// A disk over a [`Cached`] backend exposes exactly the same data as a
    /// plain one under an arbitrary schedule, and the transfers behind the
    /// cache are never MORE than the plain disk's. Both sides count
    /// literal transfers: a pooled miss and its writeback are two, as the
    /// plain disk's read-modify-write is.
    #[test]
    fn pool_is_transparent(
        ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..80),
        frames in 1usize..6,
    ) {
        let mut plain = Disk::new(MemDisk::new(4), 4, IoCostModel::SeekDominated);
        let inner = Disk::new(MemDisk::new(4), 4, IoCostModel::SeekDominated);
        let mut pooled = Disk::new(Cached::new(inner, frames), 4, IoCostModel::SeekDominated);
        let mut live: Vec<BlockId> = Vec::new();
        for (op, x, y) in ops {
            match op {
                0 => {
                    let a = plain.allocate().unwrap();
                    let b = pooled.allocate().unwrap();
                    prop_assert_eq!(a, b);
                    live.push(a);
                }
                1 if !live.is_empty() => {
                    let id = live[(x % live.len() as u64) as usize];
                    let r1 = plain.read(id).unwrap();
                    let r2 = pooled.read(id).unwrap();
                    prop_assert_eq!(r1, r2);
                }
                2 if !live.is_empty() => {
                    let id = live[(x % live.len() as u64) as usize];
                    let key = y % (u64::MAX - 1);
                    plain.read_modify_write(id, |b| {
                        if !b.is_full() { b.push(Item::new(key, y)).unwrap(); }
                    }).unwrap();
                    pooled.read_modify_write(id, |b| {
                        if !b.is_full() { b.push(Item::new(key, y)).unwrap(); }
                    }).unwrap();
                }
                _ => {}
            }
        }
        pooled.flush().unwrap();
        let transfers = pooled.backend().disk().stats().snapshot().transfers();
        let plain_transfers = plain.stats().snapshot().transfers();
        prop_assert!(transfers <= plain_transfers,
            "a cache never increases transfers: pooled {} > plain {}",
            transfers, plain_transfers);
        let backend = pooled.backend_mut().disk_mut().backend_mut();
        for id in live {
            let a = plain.read(id).unwrap();
            let b = backend.read(id).unwrap();
            prop_assert_eq!(a, b, "post-sync backend contents agree");
        }
    }

    /// Budget arithmetic never goes negative, and a reservation succeeds
    /// exactly when it fits the capacity.
    #[test]
    fn budget_invariants(ops in proptest::collection::vec((any::<bool>(), 0usize..100), 0..50)) {
        let mut b = dxh_extmem::MemoryBudget::new(1000);
        let mut model_used = 0usize;
        for (is_reserve, n) in ops {
            if is_reserve {
                let fits = model_used + n <= b.capacity();
                prop_assert_eq!(b.reserve(n).is_ok(), fits);
                if fits {
                    model_used += n;
                }
            } else {
                let n = n.min(model_used);
                b.release(n);
                model_used -= n;
            }
            prop_assert_eq!(b.used(), model_used);
            prop_assert!(b.used() <= b.capacity());
        }
    }
}

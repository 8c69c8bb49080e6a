//! Input generators. Every input is made from `--seed` before timing
//! starts; the library only ever sees the generated inputs. Each generator
//! derives its own stream from the seed and a fixed salt, so adding a
//! workload never shifts another workload's inputs.

use crate::adapter::{rng, BoxRegion, Op, Rng, RngExt, P2};

/// One client call of the read and mixed workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// Selective box query (side 16–40).
    Box(BoxRegion<2>),
    /// Big box query (side 128–256).
    BigBox(BoxRegion<2>),
    Knn(P2),
    Get(P2),
    Insert(P2, u64),
    Delete(P2),
}

/// Shares of a call mix, in percent; the remainder is `get`.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub write: u32,
    pub small_box: u32,
    pub big_box: u32,
    pub knn: u32,
}

/// Where the points of a call stream fall.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Uniform over the grid; `get` targets are drawn from `known` cells
    /// half the time so that point lookups hit.
    Uniform { known: Vec<P2> },
    /// 80 % from hot tiles scattered over the grid, 20 % uniform: anti-local
    /// for the B+tree's last-leaf hint.
    HotTiles { corners: Vec<[u32; 2]>, tile: u32 },
}

fn uniform_point(r: &mut Rng, side: u32) -> P2 {
    P2::new([r.gen_range(0..side), r.gen_range(0..side)])
}

fn box_at(r: &mut Rng, side: u32, centre: P2, lo_side: u32, hi_side: u32) -> BoxRegion<2> {
    let s = r.gen_range(lo_side..=hi_side).min(side);
    let corner = |c: u32| c.saturating_sub(s / 2).min(side - s);
    let (x, y) = (corner(centre.coord(0)), corner(centre.coord(1)));
    BoxRegion::new(P2::new([x, y]), P2::new([x + s - 1, y + s - 1]))
}

/// `n` records at uniform cells with payloads `first_payload..`.
pub fn uniform_records(seed: u64, n: usize, k: u32, first_payload: u64) -> Vec<(P2, u64)> {
    let mut r = rng(seed ^ 0x5eed_0001);
    let side = 1u32 << k;
    (0..n)
        .map(|i| (uniform_point(&mut r, side), first_payload + i as u64))
        .collect()
}

/// Curve-local write batches: a cluster centre re-drawn every 8 batches,
/// offsets within ±32 cells, 90 % insert / 10 % delete. Payloads are the
/// op's position in the whole stream, so newest-wins is checkable.
pub fn clustered_batches(seed: u64, batches: usize, batch_ops: usize, k: u32) -> Vec<Vec<Op>> {
    let mut r = rng(seed ^ 0x5eed_0002);
    let side = 1u32 << k;
    let reach = 32u32.min(side / 4);
    let mut centre = [0u32; 2];
    (0..batches)
        .map(|b| {
            if b % 8 == 0 {
                centre = [
                    r.gen_range(reach..side - reach),
                    r.gen_range(reach..side - reach),
                ];
            }
            (0..batch_ops)
                .map(|i| {
                    let p = P2::new([
                        centre[0] - reach + r.gen_range(0..2 * reach),
                        centre[1] - reach + r.gen_range(0..2 * reach),
                    ]);
                    if i % 10 == 9 {
                        Op::Delete(p)
                    } else {
                        Op::Insert(p, (b * batch_ops + i) as u64)
                    }
                })
                .collect()
        })
        .collect()
}

/// `count` hot tiles of `tile`×`tile` cells scattered over the grid.
pub fn hot_tiles(seed: u64, count: usize, tile: u32, k: u32) -> Keys {
    let mut r = rng(seed ^ 0x5eed_0003);
    let side = 1u32 << k;
    let tile = tile.min(side);
    Keys::HotTiles {
        corners: (0..count)
            .map(|_| [r.gen_range(0..=side - tile), r.gen_range(0..=side - tile)])
            .collect(),
        tile,
    }
}

/// `n` calls in the shares of `mix`, their points placed by `keys`. Every
/// 7th write is a delete; insert payloads count up from `first_payload`.
/// `stream` separates the segments of one run.
pub fn calls(
    seed: u64,
    stream: u64,
    n: usize,
    k: u32,
    mix: Mix,
    keys: &Keys,
    first_payload: u64,
) -> Vec<Call> {
    let mut r = rng(seed ^ 0x5eed_0004 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let side = 1u32 << k;
    let mut writes = 0u64;
    (0..n)
        .map(|_| {
            let class = r.gen_range(0..100u32);
            let p = match keys {
                Keys::Uniform { .. } => uniform_point(&mut r, side),
                Keys::HotTiles { corners, tile } => {
                    if r.gen_range(0..100u32) < 80 {
                        let c = corners[r.gen_range(0..corners.len())];
                        P2::new([c[0] + r.gen_range(0..*tile), c[1] + r.gen_range(0..*tile)])
                    } else {
                        uniform_point(&mut r, side)
                    }
                }
            };
            let Mix {
                write,
                small_box,
                big_box,
                knn,
            } = mix;
            if class < write {
                writes += 1;
                if writes.is_multiple_of(7) {
                    Call::Delete(p)
                } else {
                    Call::Insert(p, first_payload + writes)
                }
            } else if class < write + small_box {
                Call::Box(box_at(&mut r, side, p, 16, 40))
            } else if class < write + small_box + big_box {
                Call::BigBox(box_at(&mut r, side, p, 128, 256))
            } else if class < write + small_box + big_box + knn {
                Call::Knn(p)
            } else {
                match keys {
                    Keys::Uniform { known } if !known.is_empty() && r.gen_range(0..2u32) == 0 => {
                        Call::Get(known[r.gen_range(0..known.len())])
                    }
                    _ => Call::Get(p),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const READS: Mix = Mix {
        write: 0,
        small_box: 40,
        big_box: 10,
        knn: 30,
    };
    const MIXED: Mix = Mix {
        write: 25,
        small_box: 20,
        big_box: 0,
        knn: 5,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            clustered_batches(7, 20, 64, 11),
            clustered_batches(7, 20, 64, 11)
        );
        assert_ne!(
            clustered_batches(7, 20, 64, 11),
            clustered_batches(8, 20, 64, 11)
        );

        let Keys::HotTiles { corners: a, .. } = hot_tiles(7, 64, 128, 11) else {
            unreachable!()
        };
        let Keys::HotTiles { corners: b, .. } = hot_tiles(7, 64, 128, 11) else {
            unreachable!()
        };
        let Keys::HotTiles { corners: c, .. } = hot_tiles(8, 64, 128, 11) else {
            unreachable!()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);

        let tiles = hot_tiles(7, 64, 128, 11);
        assert_eq!(
            calls(7, 1, 500, 11, MIXED, &tiles, 0),
            calls(7, 1, 500, 11, MIXED, &tiles, 0)
        );
        assert_ne!(
            calls(7, 1, 500, 11, MIXED, &tiles, 0),
            calls(8, 1, 500, 11, MIXED, &tiles, 0)
        );
        assert_ne!(
            calls(7, 1, 500, 11, MIXED, &tiles, 0),
            calls(7, 2, 500, 11, MIXED, &tiles, 0)
        );

        let known: Vec<P2> = uniform_records(7, 100, 11, 0)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let uniform = Keys::Uniform { known };
        assert_eq!(
            calls(7, 0, 500, 11, READS, &uniform, 0),
            calls(7, 0, 500, 11, READS, &uniform, 0)
        );
        assert_ne!(
            calls(7, 0, 500, 11, READS, &uniform, 0),
            calls(9, 0, 500, 11, READS, &uniform, 0)
        );
        assert_ne!(
            uniform_records(7, 100, 11, 0),
            uniform_records(8, 100, 11, 0)
        );
    }

    #[test]
    fn clustered_batches_stay_near_their_centre() {
        for batch in clustered_batches(3, 16, 256, 11).chunks(8) {
            let xs: Vec<u32> = batch
                .iter()
                .flatten()
                .map(|op| op.point().coord(0))
                .collect();
            let span = xs.iter().max().unwrap() - xs.iter().min().unwrap();
            assert!(span < 64, "one centre spans {span} cells");
        }
        let deletes = clustered_batches(3, 4, 250, 11)
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Delete(_)))
            .count();
        assert_eq!(deletes, 100, "one op in ten deletes");
    }

    #[test]
    fn call_mix_follows_the_shares_and_stays_on_the_grid() {
        let tiles = hot_tiles(5, 64, 128, 11);
        let stream = calls(5, 0, 20_000, 11, MIXED, &tiles, 0);
        let share = |f: fn(&Call) -> bool| stream.iter().filter(|c| f(c)).count() as f64 / 200.0;
        assert!((share(|c| matches!(c, Call::Insert(..) | Call::Delete(_))) - 25.0).abs() < 1.5);
        assert!((share(|c| matches!(c, Call::Get(_))) - 50.0).abs() < 1.5);
        assert!((share(|c| matches!(c, Call::Box(_))) - 20.0).abs() < 1.5);
        assert!((share(|c| matches!(c, Call::Knn(_))) - 5.0).abs() < 1.0);
        for c in &stream {
            if let Call::Box(b) = c {
                let side = b.hi().coord(0) - b.lo().coord(0) + 1;
                assert!(
                    (16..=40).contains(&side) && b.hi().coord(0) < 2048 && b.hi().coord(1) < 2048
                );
            }
        }
    }
}

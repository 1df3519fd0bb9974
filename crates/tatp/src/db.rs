//! TATP schema, population, and read-only transaction mix.
//!
//! The Telecom Application Transaction Processing benchmark models an HLR
//! database. The paper runs its *read-only* queries with 50 M subscribers
//! and 8 clients (§6.4). Crucial detail reproduced here: during population
//! **subscriber ids are generated sequentially**, "creating a highly skewed
//! insertion workload, a situation that the NV-Tree was unable to handle".
//!
//! Composite secondary keys are packed into u64s (`s_id` in the high bits),
//! preserving the paper's fixed-size-key requirement for dictionary
//! indexes.

use fptree_core::config::{default_recovery_threads, par_map};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Column, IndexFactory, Table};

/// Number of special-facility types (TATP: 1..=4).
const SF_TYPES: u64 = 4;
/// Call-forwarding start times (TATP: 0, 8, 16).
const CF_START_TIMES: [u64; 3] = [0, 8, 16];

/// The four TATP tables over a pluggable dictionary index.
pub struct TatpDb {
    /// SUBSCRIBER (s_id → demographic columns).
    pub subscriber: Table,
    /// ACCESS_INFO, keyed by `s_id << 8 | ai_type`.
    pub access_info: Table,
    /// SPECIAL_FACILITY, keyed by `s_id << 8 | sf_type`.
    pub special_facility: Table,
    /// CALL_FORWARDING, keyed by `s_id << 16 | sf_type << 8 | start_time`.
    pub call_forwarding: Table,
    subscribers: u64,
}

/// Packs an ACCESS_INFO / SPECIAL_FACILITY key.
pub fn sf_key(s_id: u64, typ: u64) -> u64 {
    (s_id << 8) | typ
}

/// Packs a CALL_FORWARDING key.
pub fn cf_key(s_id: u64, sf_type: u64, start_time: u64) -> u64 {
    (s_id << 16) | (sf_type << 8) | start_time
}

impl TatpDb {
    /// Creates the schema with dictionaries from `factory` and populates
    /// `subscribers` rows (sequential s_ids — the skewed load).
    pub fn populate(subscribers: u64, factory: &IndexFactory<'_>, seed: u64) -> TatpDb {
        let db = TatpDb {
            subscriber: Table::new(
                "subscriber",
                "s_id",
                &[
                    "sub_nbr",
                    "bit_1",
                    "hex_1",
                    "byte2_1",
                    "msc_location",
                    "vlr_location",
                ],
                factory,
            ),
            access_info: Table::new(
                "access_info",
                "ai_key",
                &["data1", "data2", "data3", "data4"],
                factory,
            ),
            special_facility: Table::new(
                "special_facility",
                "sf_key",
                &["is_active", "error_cntrl", "data_a", "data_b"],
                factory,
            ),
            call_forwarding: Table::new(
                "call_forwarding",
                "cf_key",
                &["end_time", "numberx"],
                factory,
            ),
            subscribers,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for s_id in 1..=subscribers {
            db.subscriber.insert_row(
                s_id,
                &[
                    // sub_nbr is s_id zero-padded in TATP; numeric here.
                    s_id,
                    rng.gen_range(0..2),
                    rng.gen_range(0..16),
                    rng.gen_range(0..256),
                    rng.gen_range(0..(1 << 24)),
                    rng.gen_range(0..(1 << 24)),
                ],
            );
            // 1–4 ACCESS_INFO rows with distinct ai_types.
            let n_ai = rng.gen_range(1..=4u64);
            for ai_type in 1..=n_ai {
                db.access_info.insert_row(
                    sf_key(s_id, ai_type),
                    &[
                        rng.gen_range(0..256),
                        rng.gen_range(0..256),
                        rng.gen_range(0..(1 << 16)),
                        rng.gen_range(0..(1 << 16)),
                    ],
                );
            }
            // 1–4 SPECIAL_FACILITY rows; ~85% active (TATP spec).
            let n_sf = rng.gen_range(1..=SF_TYPES);
            for sf_type in 1..=n_sf {
                db.special_facility.insert_row(
                    sf_key(s_id, sf_type),
                    &[
                        (rng.gen_range(0..100) < 85) as u64,
                        rng.gen_range(0..256),
                        rng.gen_range(0..256),
                        rng.gen_range(0..256),
                    ],
                );
                // 0–3 CALL_FORWARDING rows with distinct start times.
                let n_cf = rng.gen_range(0..=3usize);
                for &start in CF_START_TIMES.iter().take(n_cf) {
                    db.call_forwarding.insert_row(
                        cf_key(s_id, sf_type, start),
                        &[start + 8, rng.gen_range(0..(1 << 32))],
                    );
                }
            }
        }
        db
    }

    /// Number of subscribers.
    pub fn subscribers(&self) -> u64 {
        self.subscribers
    }

    /// GET_SUBSCRIBER_DATA: point lookup + full row read (TATP weight 35).
    pub fn get_subscriber_data(&self, s_id: u64) -> Option<Vec<u64>> {
        let row = self.subscriber.find_row(s_id)?;
        Some(self.subscriber.read_row(row))
    }

    /// GET_NEW_DESTINATION: SPECIAL_FACILITY ∩ CALL_FORWARDING (weight 10).
    pub fn get_new_destination(
        &self,
        s_id: u64,
        sf_type: u64,
        start_time: u64,
        end_time: u64,
    ) -> Option<u64> {
        let sf_row = self.special_facility.find_row(sf_key(s_id, sf_type))?;
        let sf = self.special_facility.read_row(sf_row);
        if sf[0] == 0 {
            return None; // not active
        }
        // start_time must be one of the fixed slots ≤ the requested one;
        // probe candidates (each probe = one tree lookup).
        for &start in CF_START_TIMES.iter().rev() {
            if start > start_time {
                continue;
            }
            if let Some(cf_row) = self.call_forwarding.find_row(cf_key(s_id, sf_type, start)) {
                let cf = self.call_forwarding.read_row(cf_row);
                if cf[0] > end_time {
                    return Some(cf[1]); // numberx
                }
            }
        }
        None
    }

    /// GET_ACCESS_DATA: ACCESS_INFO point lookup (weight 35).
    pub fn get_access_data(&self, s_id: u64, ai_type: u64) -> Option<Vec<u64>> {
        let row = self.access_info.find_row(sf_key(s_id, ai_type))?;
        Some(self.access_info.read_row(row))
    }

    /// Every column of the schema, primary keys included.
    fn columns(&self) -> impl Iterator<Item = &Column> {
        [
            &self.subscriber,
            &self.access_info,
            &self.special_facility,
            &self.call_forwarding,
        ]
        .into_iter()
        .flat_map(|t| std::iter::once(&t.pk).chain(&t.columns))
    }

    /// Restart: drop and rebuild every DRAM decode vector (non-primary
    /// data), leaving the dictionary indexes untouched. Index-side recovery
    /// time is measured separately by reopening the trees from their pool.
    ///
    /// The dictionaries are independent and differ in size, so workers —
    /// as many as tree recovery uses — claim them one at a time.
    pub fn rebuild_decodes(&self) {
        let dicts: Vec<_> = self.columns().map(|c| &c.dict).collect();
        par_map(&dicts, default_recovery_threads(), |d| d.rebuild_decode());
    }
}

/// One transaction of the read-only mix, executed with TATP's weights
/// renormalized over the read-only subset (35/10/35 → 43.75/12.5/43.75).
pub fn run_transaction(db: &TatpDb, rng: &mut impl Rng) -> bool {
    let s_id = rng.gen_range(1..=db.subscribers());
    match rng.gen_range(0..80) {
        0..=34 => db.get_subscriber_data(s_id).is_some(),
        35..=44 => {
            let sf_type = rng.gen_range(1..=SF_TYPES);
            let start = CF_START_TIMES[rng.gen_range(0..3)];
            db.get_new_destination(s_id, sf_type, start, start + rng.gen_range(1..=8))
                .is_some()
        }
        _ => db.get_access_data(s_id, rng.gen_range(1..=4)).is_some(),
    }
}

/// Runs `total` transactions over `clients` threads; returns transactions
/// per second.
pub fn run_mix(db: &TatpDb, clients: usize, total: usize, seed: u64) -> f64 {
    let start = std::time::Instant::now();
    let per = total / clients.max(1);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let db = &*db;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + c as u64);
                for _ in 0..per {
                    std::hint::black_box(run_transaction(db, &mut rng));
                }
            });
        }
    });
    (per * clients) as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_baselines::adapters::Locked;
    use fptree_baselines::StxTree;
    use fptree_core::index::U64Index;
    use std::sync::Arc;

    fn stx_factory(_: &str) -> Arc<dyn U64Index> {
        Arc::new(Locked::new(StxTree::<u64>::new()))
    }

    #[test]
    fn population_shape() {
        let db = TatpDb::populate(200, &stx_factory, 42);
        assert_eq!(db.subscriber.len(), 200);
        // 1–4 access-info rows per subscriber.
        assert!(db.access_info.len() >= 200 && db.access_info.len() <= 800);
        assert!(db.special_facility.len() >= 200);
    }

    #[test]
    fn get_subscriber_data_reads_full_row() {
        let db = TatpDb::populate(50, &stx_factory, 1);
        let row = db.get_subscriber_data(25).unwrap();
        assert_eq!(row.len(), 6);
        assert_eq!(row[0], 25, "sub_nbr mirrors s_id");
        assert!(db.get_subscriber_data(51).is_none());
        assert!(db.get_subscriber_data(0).is_none());
    }

    #[test]
    fn get_access_data_respects_population() {
        let db = TatpDb::populate(100, &stx_factory, 2);
        // ai_type 1 always exists (population starts at 1).
        for s in 1..=100u64 {
            assert!(db.get_access_data(s, 1).is_some(), "s_id {s}");
        }
        assert!(db.get_access_data(1, 200).is_none());
    }

    #[test]
    fn get_new_destination_probes_cf() {
        let db = TatpDb::populate(300, &stx_factory, 3);
        // At least some calls must find a destination.
        let mut rng = StdRng::seed_from_u64(9);
        let mut hits = 0;
        for _ in 0..2000 {
            let s = rng.gen_range(1..=300);
            if db.get_new_destination(s, 1, 16, 17).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 0, "no destinations found in 2000 probes");
    }

    #[test]
    fn mix_runs_concurrently() {
        let db = TatpDb::populate(500, &stx_factory, 4);
        let tps = run_mix(&db, 4, 8000, 7);
        assert!(tps > 0.0);
    }

    #[test]
    fn decode_rebuild_over_fptree_dictionaries_is_exact() {
        use fptree_core::{FPTree, Locked as CoreLocked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions};
        use parking_lot::Mutex;

        // One pool, one root slot per dictionary, as the restart bench
        // lays them out.
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let dir = pool
            .allocate(fptree_pmem::ROOT_SLOT, 64 * 16)
            .expect("slot directory");
        let slots = Mutex::new(0u64);
        let factory = |_: &str| -> Arc<dyn U64Index> {
            let mut i = slots.lock();
            let owner = dir + *i * 16;
            *i += 1;
            Arc::new(CoreLocked::new(FPTree::create(
                Arc::clone(&pool),
                TreeConfig::fptree(),
                owner,
            )))
        };
        let db = TatpDb::populate(300, &factory, 6);
        let decodes = |db: &TatpDb| -> Vec<Vec<u64>> {
            db.columns()
                .map(|c| {
                    (0..c.dict.len() as u32)
                        .map(|code| c.dict.decode(code))
                        .collect()
                })
                .collect()
        };
        let before = decodes(&db);
        assert_eq!(before.len(), 20, "every dictionary of the schema");
        db.rebuild_decodes();
        assert_eq!(decodes(&db), before);
    }

    #[test]
    fn decode_rebuild_preserves_queries() {
        let db = TatpDb::populate(100, &stx_factory, 5);
        let before = db.get_subscriber_data(42).unwrap();
        db.rebuild_decodes();
        assert_eq!(db.get_subscriber_data(42).unwrap(), before);
    }
}

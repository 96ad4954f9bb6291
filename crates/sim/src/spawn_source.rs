//! Sources of spawn decisions for the Task Spawn Unit.

use polyflow_core::{SpawnKind, SpawnTable};
use polyflow_isa::{InstClass, Pc, TraceEntry};
use polyflow_reconv::{ReconvConfig, ReconvergencePredictor};

/// Supplies spawn decisions to the Task Spawn Unit.
///
/// The simulator calls [`spawn_at`](Self::spawn_at) for every instruction
/// fetched by the tail task, and [`on_retire`](Self::on_retire) for every
/// retired instruction — the hook dynamic mechanisms (the reconvergence
/// predictor, §4.4) use to train on the retirement stream.
pub trait SpawnSource {
    /// A spawn opportunity triggered by fetching `entry`, if any.
    ///
    /// Takes `&mut self` so stateful sources (the demand-filled
    /// [`HintCacheSource`], dynamic predictors) can update themselves at
    /// lookup time.
    fn spawn_at(&mut self, entry: &TraceEntry) -> Option<(Pc, SpawnKind)>;

    /// Observes one retired instruction (default: ignore).
    fn on_retire(&mut self, entry: &TraceEntry) {
        let _ = entry;
    }

    /// True when this source observes the retirement stream. The machine
    /// asks once per run and skips the per-retire call entirely when the
    /// answer is `false` (static and no-spawn sources).
    fn wants_retire(&self) -> bool {
        false
    }
}

/// A compiler-driven source: spawn points come from a static
/// [`SpawnTable`] (the hint-cache contents).
#[derive(Debug, Clone)]
pub struct StaticSpawnSource {
    table: SpawnTable,
    /// The spawn each trigger makes, keyed by [`Pc::index`]: the first
    /// of its points in table order, which is what
    /// [`SpawnTable::lookup`] yields first. The Task Spawn Unit probes
    /// every instruction the tail task fetches, so the probe is one load.
    first: Vec<Option<(Pc, SpawnKind)>>,
}

impl StaticSpawnSource {
    /// Wraps a spawn table.
    pub fn new(table: SpawnTable) -> StaticSpawnSource {
        let mut first = Vec::new();
        for sp in table.points() {
            let i = sp.trigger.index();
            if first.len() <= i {
                first.resize(i + 1, None);
            }
            first[i].get_or_insert((sp.target, sp.kind));
        }
        StaticSpawnSource { table, first }
    }

    /// The underlying table.
    pub fn table(&self) -> &SpawnTable {
        &self.table
    }
}

impl SpawnSource for StaticSpawnSource {
    #[inline]
    fn spawn_at(&mut self, entry: &TraceEntry) -> Option<(Pc, SpawnKind)> {
        self.first.get(entry.pc.index()).copied().flatten()
    }
}

/// A source that never spawns (the superscalar baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpawn;

impl SpawnSource for NoSpawn {
    #[inline]
    fn spawn_at(&mut self, _entry: &TraceEntry) -> Option<(Pc, SpawnKind)> {
        None
    }
}

/// The dynamic source of §4.4: a reconvergence predictor trained on the
/// retirement stream supplies spawn targets for conditional branches, and
/// call instructions spawn their fall-through ("the system also spawns
/// procedure fall-throughs at call instructions", §4.4).
#[derive(Debug)]
pub struct ReconvSpawnSource {
    predictor: ReconvergencePredictor,
    /// Branch PCs whose prediction should not be used as a spawn, keyed
    /// by [`Pc::index`] (none by default; reserved for experiments).
    suppressed: Vec<bool>,
}

impl ReconvSpawnSource {
    /// Creates the source with a fresh (cold) predictor — warm-up effects
    /// are therefore modeled, as in the paper.
    pub fn new(config: ReconvConfig) -> ReconvSpawnSource {
        ReconvSpawnSource {
            predictor: ReconvergencePredictor::new(config),
            suppressed: Vec::new(),
        }
    }

    /// Wraps an already-trained predictor (for offline experiments).
    pub fn with_predictor(predictor: ReconvergencePredictor) -> ReconvSpawnSource {
        ReconvSpawnSource {
            predictor,
            suppressed: Vec::new(),
        }
    }

    /// Access to the predictor (e.g. for post-run statistics).
    pub fn predictor(&self) -> &ReconvergencePredictor {
        &self.predictor
    }

    /// Suppresses spawning at one branch PC.
    pub fn suppress(&mut self, pc: Pc) {
        if self.suppressed.len() <= pc.index() {
            self.suppressed.resize(pc.index() + 1, false);
        }
        self.suppressed[pc.index()] = true;
    }
}

impl SpawnSource for ReconvSpawnSource {
    #[inline]
    fn spawn_at(&mut self, entry: &TraceEntry) -> Option<(Pc, SpawnKind)> {
        if self.suppressed.get(entry.pc.index()) == Some(&true) {
            return None;
        }
        match entry.class() {
            InstClass::CondBranch | InstClass::IndirectJump => {
                // Statically adjacent targets are fine: a loop branch's
                // fall-through is `pc + 1` in the layout but dynamically
                // far; the Task Spawn Unit's distance check filters the
                // genuinely useless cases.
                let target = self.predictor.predict(entry.pc)?;
                Some((target, SpawnKind::Other))
            }
            InstClass::Call => Some((entry.pc.next(), SpawnKind::ProcFallThrough)),
            _ => None,
        }
    }

    #[inline]
    fn on_retire(&mut self, entry: &TraceEntry) {
        self.predictor.observe(entry);
    }

    fn wants_retire(&self) -> bool {
        true
    }
}

/// A finite, set-associative spawn hint cache in front of another source.
///
/// The paper's hint cache associates spawn points with branch PCs and is
/// "loaded ... on demand" (§2.1), but its evaluation does **not** model
/// capacity or conflict misses (§3.2). This wrapper adds that effect as
/// an extension: a trigger whose hint entry is not resident yields no
/// spawn this time and is filled for subsequent fetches. Use it to study
/// how much hint storage control-equivalent spawning actually needs
/// (`cargo run -p polyflow-bench --bin ablations`).
#[derive(Debug)]
pub struct HintCacheSource<S> {
    inner: S,
    cache: crate::cache::Cache,
    misses: u64,
}

impl<S: SpawnSource> HintCacheSource<S> {
    /// Wraps `inner` with a hint cache of `entries` total hint slots and
    /// the given associativity. Each slot maps one trigger PC (modeled as
    /// an 8-byte line, matching the paper's 8-byte hint entries).
    pub fn new(inner: S, entries: usize, ways: usize) -> HintCacheSource<S> {
        let config = crate::config::CacheConfig {
            size_bytes: entries * 8,
            ways,
            line_bytes: 8,
        };
        HintCacheSource {
            inner,
            cache: crate::cache::Cache::new(config),
            misses: 0,
        }
    }

    /// Demand misses observed (spawn opportunities deferred).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SpawnSource> SpawnSource for HintCacheSource<S> {
    fn spawn_at(&mut self, entry: &TraceEntry) -> Option<(Pc, SpawnKind)> {
        let spawn = self.inner.spawn_at(entry)?;
        // Only triggers with hints occupy cache slots; an absent entry is
        // filled on demand and the opportunity is lost this once.
        if self.cache.access(entry.pc.byte_addr() * 2) {
            Some(spawn)
        } else {
            self.misses += 1;
            None
        }
    }

    fn on_retire(&mut self, entry: &TraceEntry) {
        self.inner.on_retire(entry);
    }

    fn wants_retire(&self) -> bool {
        self.inner.wants_retire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_core::SpawnPoint;
    use polyflow_isa::{Cond, Inst, Reg};

    fn entry(pc: u32, inst: Inst) -> TraceEntry {
        TraceEntry {
            pc: Pc::new(pc),
            inst,
            taken: false,
            next_pc: Pc::new(pc + 1),
            mem_addr: None,
        }
    }

    #[test]
    fn static_source_looks_up_trigger() {
        let mut table = SpawnTable::default();
        table.insert(SpawnPoint {
            trigger: Pc::new(5),
            target: Pc::new(9),
            kind: SpawnKind::Hammock,
        });
        // A second point on the same trigger: the table's first one wins.
        table.insert(SpawnPoint {
            trigger: Pc::new(5),
            target: Pc::new(12),
            kind: SpawnKind::Other,
        });
        let mut src = StaticSpawnSource::new(table);
        let hit = entry(5, Inst::Nop);
        assert_eq!(src.spawn_at(&hit), Some((Pc::new(9), SpawnKind::Hammock)));
        let first = *src.table().lookup(Pc::new(5)).next().unwrap();
        assert_eq!(src.spawn_at(&hit), Some((first.target, first.kind)));
        let miss = entry(6, Inst::Nop);
        assert_eq!(src.spawn_at(&miss), None);
        assert_eq!(src.spawn_at(&entry(1000, Inst::Nop)), None);
        assert_eq!(src.table().len(), 2);
    }

    #[test]
    fn no_spawn_never_spawns() {
        let mut src = NoSpawn;
        assert_eq!(src.spawn_at(&entry(0, Inst::Nop)), None);
    }

    #[test]
    fn reconv_source_spawns_call_fallthrough_immediately() {
        let mut src = ReconvSpawnSource::new(ReconvConfig::default());
        let call = entry(
            7,
            Inst::Call {
                target: Pc::new(100),
            },
        );
        assert_eq!(
            src.spawn_at(&call),
            Some((Pc::new(8), SpawnKind::ProcFallThrough))
        );
    }

    #[test]
    fn reconv_source_is_cold_for_branches() {
        let mut src = ReconvSpawnSource::new(ReconvConfig::default());
        let br = entry(
            3,
            Inst::Br {
                cond: Cond::Eq,
                rs: Reg::R1,
                rt: Reg::R0,
                target: Pc::new(9),
            },
        );
        assert_eq!(src.spawn_at(&br), None, "no training yet");
    }

    #[test]
    fn reconv_source_trains_through_on_retire() {
        let mut src = ReconvSpawnSource::new(ReconvConfig::default());
        let br = |taken: bool| TraceEntry {
            pc: Pc::new(3),
            inst: Inst::Br {
                cond: Cond::Eq,
                rs: Reg::R1,
                rt: Reg::R0,
                target: Pc::new(6),
            },
            taken,
            next_pc: if taken { Pc::new(6) } else { Pc::new(4) },
            mem_addr: None,
        };
        // Not-taken path: 4, 5, 6; taken path: 6. Reconvergence: 6.
        src.on_retire(&br(false));
        src.on_retire(&entry(4, Inst::Nop));
        src.on_retire(&entry(5, Inst::Nop));
        src.on_retire(&entry(6, Inst::Nop));
        src.on_retire(&br(true)); // closes the previous window
        src.on_retire(&entry(6, Inst::Nop));
        src.on_retire(&entry(7, Inst::Nop));
        // Close the taken window by retiring the branch again.
        src.on_retire(&br(false));
        assert_eq!(
            src.spawn_at(&br(false)),
            Some((Pc::new(6), SpawnKind::Other))
        );
    }

    #[test]
    fn hint_cache_defers_first_use_then_hits() {
        let mut table = SpawnTable::default();
        table.insert(SpawnPoint {
            trigger: Pc::new(5),
            target: Pc::new(9),
            kind: SpawnKind::Hammock,
        });
        let mut src = HintCacheSource::new(StaticSpawnSource::new(table), 64, 2);
        let e = entry(5, Inst::Nop);
        assert_eq!(src.spawn_at(&e), None, "cold hint cache defers");
        assert_eq!(src.misses(), 1);
        assert_eq!(
            src.spawn_at(&e),
            Some((Pc::new(9), SpawnKind::Hammock)),
            "demand fill makes the second fetch hit"
        );
        assert_eq!(src.misses(), 1);
        assert_eq!(src.inner().table().len(), 1);
    }

    #[test]
    fn hint_cache_capacity_evicts() {
        // A 2-entry direct-mapped hint cache thrashes between conflicting
        // triggers.
        let mut table = SpawnTable::default();
        for pc in [0u32, 2] {
            // Both map to the same set of a 2-set direct-mapped cache? Use
            // pcs 0 and 2: sets = 2 entries/1 way = 2 sets; line index =
            // byte_addr*2/8 = pc. pc 0 -> set 0, pc 2 -> set 0.
            table.insert(SpawnPoint {
                trigger: Pc::new(pc),
                target: Pc::new(pc + 10),
                kind: SpawnKind::Other,
            });
        }
        let mut src = HintCacheSource::new(StaticSpawnSource::new(table), 2, 1);
        let a = entry(0, Inst::Nop);
        let b = entry(2, Inst::Nop);
        assert_eq!(src.spawn_at(&a), None); // fill a
        assert!(src.spawn_at(&a).is_some()); // hit a
        assert_eq!(src.spawn_at(&b), None); // fill b, evicts a
        assert_eq!(src.spawn_at(&a), None, "a was evicted by the conflict");
    }

    #[test]
    fn suppression_blocks_spawns() {
        let mut src = ReconvSpawnSource::new(ReconvConfig::default());
        src.suppress(Pc::new(7));
        let call = entry(
            7,
            Inst::Call {
                target: Pc::new(100),
            },
        );
        assert_eq!(src.spawn_at(&call), None);
    }
}

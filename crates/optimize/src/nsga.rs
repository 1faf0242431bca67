//! Deterministic NSGA-II over the sweep engine.
//!
//! The shape is the classical one — non-dominated sort, crowding
//! distance, binary tournament, blend crossover, Gaussian mutation,
//! elitist (µ+λ) environmental selection — with two structural choices
//! that make the whole run bit-identical at any thread count:
//!
//! * **All randomness is serial.** One [`SplitMix64`] stream on the
//!   calling thread drives sampling, selection, crossover and
//!   mutation; workers never see the RNG.
//! * **Only evaluation is parallel, and it is order-preserving and
//!   pure.** Objectives come from [`Sweep::map`], which returns results
//!   in input order regardless of the worker count. Ranking is serial:
//!   an ENS-BS sort (lexicographic order, then a binary search over the
//!   fronts) runs once per generation on the combined 2N population,
//!   and the survivors carry their rank and crowding out of it.
//!
//! Ties are always broken by a total order (rank, then crowding with a
//! bit-level f64 fallback, then population index), never by pointer or
//! hash-map iteration order.

use std::cmp::Ordering;

use aeropack_obs::{counter, span};
use aeropack_sweep::Sweep;
use aeropack_units::SplitMix64;

use crate::eval::EvalContext;
use crate::front::{ParetoFront, ParetoPoint};
use crate::genome::{DesignSpace, Genome};

/// Evaluation grain hint: genomes per sweep worker before a run spawns
/// threads. An evaluation is closed-form, a few hundred ns, so one
/// generation's batch is too little work to pay for spawning workers.
/// Measured on a 2-hardware-thread host with `Sweep::new(2)`, 40
/// generations, serial and threaded runs interleaved (p50): 6.1 ms
/// serial against 7.6 ms threaded at population 128 (threaded faster
/// in 0 of 40 pairs), 25.5 against 29.2 ms at 512 (7 of 40), 57.7
/// against 62.5 ms at 1024 (4 of 20) and 145.8 against 148.6 ms at
/// 2048 (5 of 20). So batches up to 1024 genomes per worker stay on
/// the calling thread. Applied through [`Sweep::grain_hint`], so an
/// explicit [`Sweep::with_grain`] still wins.
const OPTIMIZE_EVAL_GRAIN: usize = 1024;

/// Run parameters. `population × (generations + 1)` objective
/// evaluations are performed in total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Population size (≥ 2).
    pub population: usize,
    /// Number of offspring generations after the initial sample.
    pub generations: usize,
    /// Root seed of the single serial RNG stream.
    pub seed: u64,
    /// Probability a mating pair recombines (else the parents pass
    /// through unchanged, still subject to mutation).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Mutation kick as a fraction of each gene's range.
    pub mutation_sigma: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            population: 128,
            generations: 40,
            seed: 0xae20_9a5e_0b75_c0de,
            crossover_rate: 0.9,
            mutation_rate: 0.15,
            mutation_sigma: 0.1,
        }
    }
}

/// The outcome of one optimizer run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// The non-dominated set of the final population.
    pub front: ParetoFront,
    /// The full final population (front members included).
    pub population: Vec<ParetoPoint>,
    /// Objective evaluations performed.
    pub evaluations: u64,
    /// Generations run.
    pub generations: usize,
}

/// Per-individual state the selection operators read.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    rank: u32,
    crowding: f64,
}

/// Descending f64 with a bit-level fallback so the order is total even
/// for the ±∞ crowding sentinels.
fn cmp_f64_desc(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a)
        .unwrap_or_else(|| b.to_bits().cmp(&a.to_bits()))
}

/// An integer image of `x`: `f64::total_cmp` order after folding −0.0
/// onto +0.0, so for NaN-free values it orders exactly as `<` and `==`
/// do (and as `dominates` compares). Sorting points by these keys axis
/// by axis therefore puts every dominator strictly before the points it
/// dominates.
fn order_key(x: f64) -> i64 {
    let bits = (x + 0.0).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Crowding distance of one front into `dist` (boundary points get
/// ∞). `front` holds indices into `objectives`; equal objective values
/// are ordered by index, so the result depends on the front's index
/// order, not on how it was produced. `axis` is scratch: one
/// `(order_key, index, position in front)` entry per member.
fn crowding_distances(
    front: &[u32],
    objectives: &[[f64; 3]],
    dist: &mut Vec<f64>,
    axis: &mut Vec<(i64, u32, u32)>,
) {
    let n = front.len();
    dist.clear();
    if n <= 2 {
        dist.resize(n, f64::INFINITY);
        return;
    }
    dist.resize(n, 0.0);
    // `m` walks the objective axes of the inner `[f64; 3]`, not an
    // iterable container.
    #[allow(clippy::needless_range_loop)]
    for m in 0..3 {
        axis.clear();
        axis.extend(
            front
                .iter()
                .enumerate()
                .map(|(pos, &i)| (order_key(objectives[i as usize][m]), i, pos as u32)),
        );
        axis.sort_unstable();
        let value = |w: usize| objectives[axis[w].1 as usize][m];
        dist[axis[0].2 as usize] = f64::INFINITY;
        dist[axis[n - 1].2 as usize] = f64::INFINITY;
        let range = value(n - 1) - value(0);
        if range > 0.0 {
            for w in 1..n - 1 {
                dist[axis[w].2 as usize] += (value(w + 1) - value(w - 1)) / range;
            }
        }
    }
}

/// Ranking state with its scratch buffers, reused across generations.
#[derive(Debug, Default)]
struct Ranker {
    /// [`order_key`]s of each individual's objectives, then its index:
    /// sorted, the lexicographic visiting order of [`Ranker::sort`].
    keys: Vec<([i64; 3], u32)>,
    /// Fronts as ascending index lists, best first; only the first
    /// `fronts_used` are live, the rest keep their capacity.
    fronts: Vec<Vec<u32>>,
    /// Each front's staircase, the part of it the binary search probes:
    /// the members no later member matches or beats on both axes 1 and
    /// 2, by ascending axis 1 (so strictly descending axis 2).
    stairs: Vec<Vec<[f64; 3]>>,
    fronts_used: usize,
    /// Crowding distances of the front last measured.
    dist: Vec<f64>,
    /// Per-axis scratch of [`crowding_distances`].
    axis: Vec<(i64, u32, u32)>,
    /// Truncation order of the last admitted front.
    cut: Vec<usize>,
    /// The truncated front's survivors, re-keyed by survivor position.
    kept_front: Vec<u32>,
    kept_objectives: Vec<[f64; 3]>,
}

impl Ranker {
    #[cfg(test)]
    fn fronts(&self) -> &[Vec<u32>] {
        &self.fronts[..self.fronts_used]
    }

    /// Non-dominated sort by ENS-BS (Zhang et al., IEEE TEVC 19(2),
    /// 2015). Points are visited in lexicographic [`order_key`] order,
    /// ties by index, so every dominator of a point is already placed
    /// when the point is. If front k holds a dominator of a point, so
    /// does every front before it; a binary search over the fronts
    /// therefore finds the first front without one. Each front is
    /// finally sorted by index, which makes the result the same index
    /// lists as Deb's all-pairs peel. Objectives must be NaN-free:
    /// `dominates` and the lexicographic order disagree on NaN.
    ///
    /// With three objectives a probe is a binary search, not a scan of
    /// the front. Every member q of a front precedes the point p, so
    /// `q[0] <= p[0]`, and q dominates p exactly when `q[1] <= p[1]`,
    /// `q[2] <= p[2]` and `q != p`. A member that a later member of its
    /// front matches or beats on axes 1 and 2 dominates only points the
    /// later one dominates too, so each front keeps a staircase of the
    /// other members, and the stair entry with the largest
    /// `q[1] <= p[1]` has the smallest `q[2]` of all entries with
    /// `q[1] <= p[1]`.
    fn sort(&mut self, objectives: &[[f64; 3]]) {
        self.keys.clear();
        self.keys.extend(
            objectives
                .iter()
                .zip(0u32..)
                .map(|(o, i)| (o.map(order_key), i)),
        );
        self.keys.sort_unstable();
        for front in &mut self.fronts[..self.fronts_used] {
            front.clear();
        }
        for stair in &mut self.stairs[..self.fronts_used] {
            stair.clear();
        }
        self.fronts_used = 0;
        for &(_, p) in &self.keys {
            let point = &objectives[p as usize];
            let (mut lo, mut hi) = (0, self.fronts_used);
            while lo < hi {
                let mid = (lo + hi) / 2;
                let stair = &self.stairs[mid];
                let below = stair.partition_point(|q| q[1] <= point[1]);
                if below > 0 && stair[below - 1][2] <= point[2] && stair[below - 1] != *point {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo == self.fronts_used {
                if lo == self.fronts.len() {
                    self.fronts.push(Vec::new());
                    self.stairs.push(Vec::new());
                }
                self.fronts_used += 1;
            }
            self.fronts[lo].push(p);
            // The point replaces the stair entries it matches or beats
            // on axes 1 and 2: a run starting at its axis-1 position.
            let stair = &mut self.stairs[lo];
            let start = stair.partition_point(|q| q[1] < point[1]);
            let end = start + stair[start..].partition_point(|q| q[2] >= point[2]);
            stair.splice(start..end, [*point]);
        }
        for front in &mut self.fronts[..self.fronts_used] {
            front.sort_unstable();
        }
    }

    /// Ranks a whole population: NSGA rank and crowding for every
    /// individual, in population order.
    fn rank(&mut self, objectives: &[[f64; 3]], ranked: &mut Vec<Ranked>) {
        self.sort(objectives);
        ranked.clear();
        ranked.resize(
            objectives.len(),
            Ranked {
                rank: u32::MAX,
                crowding: 0.0,
            },
        );
        for (r, front) in self.fronts[..self.fronts_used].iter().enumerate() {
            crowding_distances(front, objectives, &mut self.dist, &mut self.axis);
            for (&i, &d) in front.iter().zip(&self.dist) {
                ranked[i as usize] = Ranked {
                    rank: r as u32,
                    crowding: d,
                };
            }
        }
    }

    /// Elitist (µ+λ) environmental selection of `n` survivors from the
    /// combined population. Whole fronts are admitted best first; the
    /// first front that does not fit is cut by descending crowding,
    /// then index. `survivors` receives the chosen indices into
    /// `combined` in their new population order, and `ranked` their
    /// rank and crowding — bit for bit what [`Ranker::rank`] of the
    /// survivors would give, without sorting them again:
    ///
    /// * every front before the cut survives whole, so each survivor
    ///   keeps its combined rank;
    /// * a whole front keeps its crowding, because survivor order is
    ///   monotone in combined index within it (the crowding tie-break);
    /// * only the cut front is measured again, over its survivors and
    ///   keyed by survivor position.
    fn select(
        &mut self,
        combined: &[[f64; 3]],
        n: usize,
        survivors: &mut Vec<u32>,
        ranked: &mut Vec<Ranked>,
    ) {
        self.sort(combined);
        survivors.clear();
        ranked.clear();
        for (r, front) in self.fronts[..self.fronts_used].iter().enumerate() {
            let rank = r as u32;
            crowding_distances(front, combined, &mut self.dist, &mut self.axis);
            if survivors.len() + front.len() <= n {
                survivors.extend_from_slice(front);
                ranked.extend(self.dist.iter().map(|&crowding| Ranked { rank, crowding }));
                if survivors.len() == n {
                    break;
                }
                continue;
            }
            let dist = &self.dist;
            self.cut.clear();
            self.cut.extend(0..front.len());
            self.cut.sort_unstable_by(|&a, &b| {
                cmp_f64_desc(dist[a], dist[b]).then(front[a].cmp(&front[b]))
            });
            let start = survivors.len();
            survivors.extend(self.cut[..n - start].iter().map(|&w| front[w]));
            self.kept_objectives.clear();
            self.kept_objectives
                .extend(survivors[start..].iter().map(|&i| combined[i as usize]));
            self.kept_front.clear();
            self.kept_front.extend(0..(n - start) as u32);
            crowding_distances(
                &self.kept_front,
                &self.kept_objectives,
                &mut self.dist,
                &mut self.axis,
            );
            ranked.extend(self.dist.iter().map(|&crowding| Ranked { rank, crowding }));
            break;
        }
    }
}

/// Binary tournament: lower rank wins, then higher crowding, then
/// lower index — a total order, so the winner is never ambiguous.
fn tournament(ranked: &[Ranked], rng: &mut SplitMix64) -> usize {
    let n = ranked.len() as u64;
    let a = (rng.next_u64() % n) as usize;
    let b = (rng.next_u64() % n) as usize;
    let better = ranked[a]
        .rank
        .cmp(&ranked[b].rank)
        .then(cmp_f64_desc(ranked[a].crowding, ranked[b].crowding))
        .then(a.cmp(&b));
    if better.is_le() {
        a
    } else {
        b
    }
}

/// The optimizer: a design space, a configuration and a run loop.
#[derive(Debug, Clone)]
pub struct Optimizer {
    space: DesignSpace,
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer over `space` with `config`.
    ///
    /// # Panics
    ///
    /// Panics when the population is smaller than 2 or the design
    /// space admits no topology — both are programming errors, not
    /// data errors.
    pub fn new(space: DesignSpace, config: OptimizerConfig) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
        assert!(
            !space.topologies.is_empty(),
            "design space must admit at least one topology"
        );
        Self { space, config }
    }

    /// The configuration the optimizer was built with.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs the search. Bit-identical output for identical
    /// `(space, config, ctx)` at any sweep thread count.
    pub fn run(&self, ctx: &EvalContext, sweep: &Sweep) -> OptimizeResult {
        let _span = span!(
            "optimize.run",
            seed = self.config.seed,
            population = self.config.population,
            generations = self.config.generations
        );
        counter!("optimize.runs");
        let n = self.config.population;
        let sweep = sweep.grain_hint(OPTIMIZE_EVAL_GRAIN);
        let mut rng = SplitMix64::new(self.config.seed);
        let mut evaluations = 0u64;

        // Appends the evaluated `genomes` to the population and its
        // objective vectors.
        let mut evaluate = |genomes: &[Genome],
                            population: &mut Vec<ParetoPoint>,
                            objectives: &mut Vec<[f64; 3]>| {
            let evaluated = sweep.map(genomes, |g| ctx.evaluate(g));
            evaluations += genomes.len() as u64;
            counter!("optimize.evaluations", genomes.len() as u64);
            for (g, o) in genomes.iter().zip(evaluated) {
                objectives.push(o.minimized());
                population.push(ParetoPoint {
                    genome: *g,
                    objectives: o,
                });
            }
        };

        // `population`/`objectives` hold N individuals between
        // generations and the combined 2N during selection.
        let mut population = Vec::with_capacity(2 * n);
        let mut objectives = Vec::with_capacity(2 * n);
        let mut next_population = Vec::with_capacity(2 * n);
        let mut next_objectives = Vec::with_capacity(2 * n);
        let mut offspring = Vec::with_capacity(n);
        let mut survivors = Vec::with_capacity(n);
        let mut ranked = Vec::with_capacity(n);
        let mut ranker = Ranker::default();

        let seeds: Vec<Genome> = (0..n).map(|_| self.space.sample(&mut rng)).collect();
        evaluate(&seeds, &mut population, &mut objectives);
        ranker.rank(&objectives, &mut ranked);

        for _ in 0..self.config.generations {
            counter!("optimize.generations");

            // Breed λ = N offspring on the serial RNG stream.
            offspring.clear();
            while offspring.len() < n {
                let p1 = population[tournament(&ranked, &mut rng)].genome;
                let p2 = population[tournament(&ranked, &mut rng)].genome;
                let (mut c1, mut c2) = if rng.next_f64() < self.config.crossover_rate {
                    self.space.crossover(&p1, &p2, &mut rng)
                } else {
                    (p1, p2)
                };
                self.space.mutate(
                    &mut c1,
                    &mut rng,
                    self.config.mutation_rate,
                    self.config.mutation_sigma,
                );
                self.space.mutate(
                    &mut c2,
                    &mut rng,
                    self.config.mutation_rate,
                    self.config.mutation_sigma,
                );
                offspring.push(c1);
                if offspring.len() < n {
                    offspring.push(c2);
                }
            }
            evaluate(&offspring, &mut population, &mut objectives);

            // Elitist (µ+λ) environmental selection; the survivors come
            // out ranked for the next generation's tournaments.
            ranker.select(&objectives, n, &mut survivors, &mut ranked);
            next_population.clear();
            next_objectives.clear();
            for &i in &survivors {
                next_population.push(population[i as usize]);
                next_objectives.push(objectives[i as usize]);
            }
            std::mem::swap(&mut population, &mut next_population);
            std::mem::swap(&mut objectives, &mut next_objectives);
        }

        let front = ParetoFront::from_points(&population);
        counter!("optimize.front_size", front.len() as u64);
        OptimizeResult {
            front,
            population,
            evaluations,
            generations: self.config.generations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::dominates;
    use aeropack_units::{Celsius, Power};

    fn quick_config(seed: u64) -> OptimizerConfig {
        OptimizerConfig {
            population: 32,
            generations: 8,
            seed,
            ..OptimizerConfig::default()
        }
    }

    fn ctx() -> EvalContext {
        EvalContext::new(Celsius::new(25.0), Power::new(120.0), 0.0)
    }

    /// Deb's fast non-dominated sort, the all-pairs O(N²) peel the
    /// ENS-BS sort replaced: the reference its fronts must match.
    fn reference_sort(objectives: &[[f64; 3]]) -> Vec<Vec<u32>> {
        let n = objectives.len();
        let mut remaining = vec![0u32; n];
        let mut dominated: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if dominates(&objectives[j], &objectives[i]) {
                    remaining[i] += 1;
                } else if dominates(&objectives[i], &objectives[j]) {
                    dominated[i].push(j as u32);
                }
            }
        }
        let mut fronts = Vec::new();
        let mut current: Vec<u32> = (0..n as u32)
            .filter(|&i| remaining[i as usize] == 0)
            .collect();
        while !current.is_empty() {
            let mut next = Vec::new();
            for &i in &current {
                for &j in &dominated[i as usize] {
                    remaining[j as usize] -= 1;
                    if remaining[j as usize] == 0 {
                        next.push(j);
                    }
                }
            }
            next.sort_unstable();
            fronts.push(std::mem::replace(&mut current, next));
        }
        fronts
    }

    /// A seeded objective set. Small integer levels force duplicates
    /// and ties on every axis; zeros come out as ±0.0 at random.
    fn random_objectives(rng: &mut SplitMix64, n: usize, levels: u64) -> Vec<[f64; 3]> {
        (0..n)
            .map(|_| {
                let mut v = [0.0; 3];
                for x in &mut v {
                    let level = (rng.next_u64() % levels) as f64;
                    let sign = if rng.next_u64().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    *x = sign * level;
                }
                v
            })
            .collect()
    }

    fn ens_fronts(objectives: &[[f64; 3]]) -> Vec<Vec<u32>> {
        let mut ranker = Ranker::default();
        ranker.sort(objectives);
        ranker.fronts().to_vec()
    }

    #[test]
    fn run_produces_nonempty_mutually_nondominated_front() {
        let opt = Optimizer::new(DesignSpace::default(), quick_config(1));
        let result = opt.run(&ctx(), &Sweep::serial());
        assert!(!result.front.is_empty());
        for a in result.front.points() {
            for b in result.front.points() {
                assert!(!dominates(&a.minimized(), &b.minimized()) || a == b);
            }
        }
    }

    #[test]
    fn evaluation_count_is_population_times_generations_plus_one() {
        let cfg = quick_config(2);
        let opt = Optimizer::new(DesignSpace::default(), cfg);
        let result = opt.run(&ctx(), &Sweep::serial());
        assert_eq!(
            result.evaluations,
            (cfg.population * (cfg.generations + 1)) as u64
        );
        assert_eq!(result.population.len(), cfg.population);
    }

    #[test]
    fn identical_runs_are_bitwise_identical_across_thread_counts() {
        // `with_grain(1)` overrides the evaluation grain hint, so the
        // threaded runs really evaluate in parallel.
        let context = ctx();
        let opt = Optimizer::new(DesignSpace::default(), quick_config(3));
        let serial = opt.run(&context, &Sweep::serial());
        let two = opt.run(&context, &Sweep::new(2).with_grain(1));
        let eight = opt.run(&context, &Sweep::new(8).with_grain(1));
        assert_eq!(serial.front.fingerprint(), two.front.fingerprint());
        assert_eq!(serial.front.fingerprint(), eight.front.fingerprint());
        assert_eq!(serial.population, two.population);
        assert_eq!(serial.population, eight.population);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let context = ctx();
        let a = Optimizer::new(DesignSpace::default(), quick_config(10))
            .run(&context, &Sweep::serial());
        let b = Optimizer::new(DesignSpace::default(), quick_config(11))
            .run(&context, &Sweep::serial());
        assert_ne!(a.front.fingerprint(), b.front.fingerprint());
    }

    #[test]
    fn search_improves_over_random_sampling() {
        // The evolved front should cover (dominate or match) most of a
        // fresh random sample of the same budget's initial slice.
        let context = ctx();
        let opt = Optimizer::new(DesignSpace::default(), quick_config(4));
        let result = opt.run(&context, &Sweep::serial());
        let space = DesignSpace::default();
        let mut rng = aeropack_units::SplitMix64::new(0xbeef);
        let mut covered = 0;
        let total = 64;
        for _ in 0..total {
            let g = space.sample(&mut rng);
            let obj = context.evaluate(&g).minimized();
            if result.front.covers(&obj)
                || result
                    .front
                    .points()
                    .iter()
                    .any(|p| !dominates(&obj, &p.minimized()))
            {
                covered += 1;
            }
        }
        assert!(covered > total / 2, "front covered only {covered}/{total}");
    }

    #[test]
    fn sort_and_crowding_are_deterministic() {
        let objectives = vec![
            [1.0, 2.0, 3.0],
            [2.0, 1.0, 3.0],
            [3.0, 3.0, 3.0],
            [1.0, 2.0, 3.0],
        ];
        let fronts = ens_fronts(&objectives);
        assert_eq!(fronts, ens_fronts(&objectives));
        assert_eq!(fronts, reference_sort(&objectives));
        // [3,3,3] is dominated by both minima; the duplicate pair and
        // the [2,1,3] trade-off share front 0.
        assert_eq!(fronts[0], vec![0, 1, 3]);
        assert_eq!(fronts[1], vec![2]);
        let (mut dist, mut axis) = (Vec::new(), Vec::new());
        crowding_distances(&fronts[0], &objectives, &mut dist, &mut axis);
        assert_eq!(dist.len(), 3);
    }

    #[test]
    fn ens_fronts_match_the_all_pairs_reference() {
        let mut rng = SplitMix64::new(0x0e75_b5ee_d000_0001);
        // One reused ranker also checks that stale buffers never leak
        // into the next sort.
        let mut ranker = Ranker::default();
        for case in 0..400 {
            let n = (rng.next_u64() % 97) as usize;
            // Few levels: duplicates and ties on every axis; many
            // levels: mostly distinct values and deep front stacks.
            let levels = [2, 3, 5, 1 << 20][case % 4];
            let objectives = random_objectives(&mut rng, n, levels);
            ranker.sort(&objectives);
            assert_eq!(
                ranker.fronts(),
                reference_sort(&objectives).as_slice(),
                "case {case}: n {n}, levels {levels}"
            );
        }
    }

    #[test]
    fn ens_handles_signed_zeros_and_single_fronts() {
        // −0.0 sorts before +0.0 under `total_cmp`, yet `dominates`
        // sees them as equal: [+0, 1, 1] dominates [−0, 2, 2].
        let zeros = vec![[-0.0, 2.0, 2.0], [0.0, 1.0, 1.0], [-0.0, 1.0, 1.0]];
        assert_eq!(ens_fronts(&zeros), reference_sort(&zeros));
        assert_eq!(ens_fronts(&zeros), vec![vec![1, 2], vec![0]]);

        // Points on the plane x + y + z = 1 are mutually non-dominated.
        let mut rng = SplitMix64::new(7);
        let plane: Vec<[f64; 3]> = (0..64)
            .map(|_| {
                let (x, y) = (rng.next_f64() * 0.5, rng.next_f64() * 0.5);
                [x, y, 1.0 - x - y]
            })
            .collect();
        let fronts = ens_fronts(&plane);
        assert_eq!(fronts, reference_sort(&plane));
        assert_eq!(fronts.len(), 1);

        // All duplicates: one front, in index order.
        let same = vec![[1.5, -2.0, 0.0]; 9];
        assert_eq!(ens_fronts(&same), vec![(0..9).collect::<Vec<u32>>()]);
        assert!(ens_fronts(&[]).is_empty());
    }

    #[test]
    fn carried_rank_and_crowding_match_a_fresh_ranking() {
        let mut rng = SplitMix64::new(0xca77_1ed0);
        let mut ranker = Ranker::default();
        let (mut survivors, mut carried, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
        for case in 0..300 {
            let n = 2 + (rng.next_u64() % 40) as usize;
            let levels = [3, 6, 1 << 20][case % 3];
            let combined = random_objectives(&mut rng, 2 * n, levels);
            ranker.select(&combined, n, &mut survivors, &mut carried);
            assert_eq!(survivors.len(), n);
            assert_eq!(carried.len(), n);
            let kept: Vec<[f64; 3]> = survivors.iter().map(|&i| combined[i as usize]).collect();
            Ranker::default().rank(&kept, &mut fresh);
            for (s, (c, f)) in carried.iter().zip(&fresh).enumerate() {
                assert_eq!(c.rank, f.rank, "case {case}: survivor {s} rank");
                assert_eq!(
                    c.crowding.to_bits(),
                    f.crowding.to_bits(),
                    "case {case}: survivor {s} crowding"
                );
            }
        }
    }
}

//! Synthetic CAR (used-vehicle listings) dataset.
//!
//! The real CAR dataset (cars.com) lists used vehicles with model, make,
//! type, year, condition, wheel-drive, doors and engine attributes.  It is
//! the paper's "sparse" dataset: many distinct models and free-text-like
//! values, each appearing only a handful of times — which is what makes
//! HoloClean-style co-occurrence models fragile on it (Figure 7a).

use crate::make_dirty;
use crate::stream::{DirtyRowStream, StreamColumn};
use dataset::rng::Rng;
use dataset::{Dataset, DirtyDataset, Schema, TupleId};
use rules::{parse_rules, RuleSet};

/// Generator for the synthetic CAR dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CarGenerator {
    /// Number of distinct models per make.
    pub models_per_make: usize,
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CarGenerator {
    fn default() -> Self {
        CarGenerator {
            models_per_make: 3,
            rows: 2_000,
            seed: 23,
        }
    }
}

const MAKES: &[&str] = &[
    "acura",
    "audi",
    "bmw",
    "chevrolet",
    "dodge",
    "ford",
    "honda",
    "hyundai",
    "jeep",
    "kia",
    "lexus",
    "mazda",
    "nissan",
    "subaru",
    "toyota",
    "volkswagen",
];

const TYPES: &[&str] = &["sedan", "suv", "coupe", "hatchback", "truck"];

/// Model-name stems: distinct, realistic-looking names so that different
/// models are far apart under a string metric (as real model names are),
/// while a typo'd model stays close to its original.
const MODEL_STEMS: &[&str] = &[
    "integra",
    "quattro",
    "gran-turismo",
    "silverado",
    "challenger",
    "mustang",
    "civic",
    "elantra",
    "wrangler",
    "sorento",
    "ladyra",
    "miata",
    "altima",
    "outback",
    "corolla",
    "passat",
    "legend",
    "allroad",
    "zagato",
    "impala",
    "durango",
    "explorer",
    "accord",
    "sonata",
    "cherokee",
    "sportage",
    "luxion",
    "navada",
    "maxima",
    "forester",
    "camry",
    "jetta",
    "vigor",
    "cabrio",
    "roadster",
    "tahoe",
    "viper",
    "ranger",
    "pilot",
    "tucson",
    "gladiator",
    "telluride",
    "emblema",
    "protege",
    "sentra",
    "crosstrek",
    "tundra",
    "touareg",
];

const CONDITIONS: &[&str] = &["new", "used", "certified"];

const WHEEL_DRIVES: &[&str] = &["fwd", "rwd", "awd", "4wd"];

impl CarGenerator {
    /// Set the number of rows.
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The CAR rule set of Table 4:
    /// * CFD: `Make="acura", Type ⇒ Doors`
    /// * FD: `Model, Type ⇒ Make`
    pub fn rules() -> RuleSet {
        parse_rules(
            "CFD: Make=\"acura\", Type -> Doors\n\
             FD: Model, Type -> Make",
        )
        .expect("the CAR rule set is well-formed")
    }

    /// Order-preserving split of a CAR dataset into `(head, tail)` tuple
    /// ids, where the tail is (at most) the last `tail_rows` rows whose
    /// `Make` is not `"acura"`.
    ///
    /// Such tail rows are irrelevant to the `Make="acura"` CFD, so ingesting
    /// them into an incremental cleaning session leaves the CFD block
    /// untouched — the partial-dirtiness scenario the streaming bench and
    /// the session-equivalence tests both probe.
    pub fn non_acura_tail_split(ds: &Dataset, tail_rows: usize) -> (Vec<TupleId>, Vec<TupleId>) {
        let make = ds
            .schema()
            .attr_id("Make")
            .expect("a CAR dataset has a Make column");
        let non_acura: Vec<TupleId> = ds
            .tuple_ids()
            .filter(|&t| ds.value(t, make) != "acura")
            .collect();
        let tail: Vec<TupleId> = non_acura[non_acura.len().saturating_sub(tail_rows)..].to_vec();
        let head: Vec<TupleId> = ds.tuple_ids().filter(|t| !tail.contains(t)).collect();
        (head, tail)
    }

    /// Doors for acura vehicles as a function of vehicle type — the
    /// dependency behind the CFD of Table 4.
    fn acura_doors_for(vehicle_type: &str) -> &'static str {
        match vehicle_type {
            "coupe" => "2",
            "truck" => "2",
            "sedan" | "hatchback" => "4",
            "suv" => "5",
            _ => "4",
        }
    }

    /// Doors for non-acura vehicles: a stable per-(model, type) choice that
    /// is *not* a simple function of the type alone.  No rule constrains
    /// these cells, and keeping them weakly predictable mirrors the real
    /// listings data where a statistical cleaner cannot trivially recover a
    /// corrupted door count either.
    fn other_doors_for(model: &str, vehicle_type: &str) -> &'static str {
        let hash: usize = model
            .bytes()
            .chain(vehicle_type.bytes())
            .fold(0usize, |acc, b| {
                acc.wrapping_mul(31).wrapping_add(b as usize)
            });
        ["2", "3", "4", "5"][hash % 4]
    }

    /// The CAR schema.
    pub fn schema() -> Schema {
        Schema::new(&[
            "Model",
            "Make",
            "Type",
            "Year",
            "Condition",
            "WheelDrive",
            "Doors",
            "Engine",
        ])
    }

    /// Number of catalogue entries (models across all makes).
    fn catalogue_len(&self) -> usize {
        MAKES.len() * self.models_per_make.max(1)
    }

    /// The `flat`-th catalogue entry as `(model, make)`.  Every model name is
    /// unique to one make, so the FD Model, Type → Make holds by
    /// construction.  Model names come from a pool of distinct stems
    /// (suffixed when the pool wraps around) so that different models are far
    /// apart in edit distance.
    fn catalogue_entry(&self, flat: usize) -> (String, &'static str) {
        let make = MAKES[flat / self.models_per_make.max(1)];
        let stem = MODEL_STEMS[flat % MODEL_STEMS.len()];
        let model = if flat < MODEL_STEMS.len() {
            stem.to_string()
        } else {
            format!("{}-{}", stem, flat / MODEL_STEMS.len() + 1)
        };
        (model, make)
    }

    /// Stream the clean rows one at a time.  [`CarGenerator::generate`]
    /// drains this same stream, so streamed rows are byte-identical to the
    /// materialised dataset whatever the consumer's batch size.
    pub fn row_stream(&self) -> CarRows {
        CarRows {
            rng: Rng::seeded(self.seed),
            gen: self.clone(),
            produced: 0,
        }
    }

    /// Generate the clean dataset by materialising the row stream.
    pub fn generate(&self) -> Dataset {
        let mut ds = Dataset::with_capacity(Self::schema(), self.rows);
        for row in self.row_stream() {
            ds.push_row(row).expect("row matches the CAR schema");
        }
        ds
    }

    /// Generate a clean dataset and corrupt it per the paper's protocol.
    pub fn dirty(&self, error_rate: f64, replacement_ratio: f64, seed: u64) -> DirtyDataset {
        let clean = self.generate();
        make_dirty(&clean, &Self::rules(), error_rate, replacement_ratio, seed)
    }

    /// Stream dirty rows: the clean row stream with the rule-related cells
    /// (`Model`, `Make`, `Type`, `Doors`) corrupted by the per-cell streaming
    /// protocol (deterministic in `seed`, batch-size independent).
    pub fn dirty_row_stream(
        &self,
        error_rate: f64,
        replacement_ratio: f64,
        seed: u64,
    ) -> DirtyRowStream<CarRows> {
        let catalogue = self.clone();
        let n = self.catalogue_len() as u64;
        DirtyRowStream::new(
            self.row_stream(),
            vec![
                StreamColumn::new(
                    0,
                    Box::new(move |draw| catalogue.catalogue_entry((draw % n) as usize).0),
                ),
                StreamColumn::new(
                    1,
                    Box::new(|draw| MAKES[(draw % MAKES.len() as u64) as usize].to_string()),
                ),
                StreamColumn::new(
                    2,
                    Box::new(|draw| TYPES[(draw % TYPES.len() as u64) as usize].to_string()),
                ),
                StreamColumn::new(
                    6,
                    Box::new(|draw| ["2", "3", "4", "5"][(draw % 4) as usize].to_string()),
                ),
            ],
            error_rate,
            replacement_ratio,
            seed,
        )
    }
}

/// Iterator over the clean CAR rows, in row order (see
/// [`CarGenerator::row_stream`]).
#[derive(Debug, Clone)]
pub struct CarRows {
    rng: Rng,
    gen: CarGenerator,
    produced: usize,
}

impl Iterator for CarRows {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.produced >= self.gen.rows {
            return None;
        }
        self.produced += 1;
        // Skewed model popularity (roughly Zipf-like): listings of the
        // popular models dominate, as they do on the real site.  This is
        // what gives the FD groups enough support for AGP/RSC while
        // keeping a long sparse tail.
        let catalogue_len = self.gen.catalogue_len();
        let skew = self.rng.unit();
        let model_idx = ((skew * skew) * catalogue_len as f64) as usize;
        let (model, make) = self.gen.catalogue_entry(model_idx.min(catalogue_len - 1));
        let vehicle_type = TYPES[self.rng.below(TYPES.len())];
        let doors = if make == "acura" {
            CarGenerator::acura_doors_for(vehicle_type)
        } else {
            CarGenerator::other_doors_for(&model, vehicle_type)
        };
        let year = format!("{}", self.rng.range(1998..=2019));
        let condition = CONDITIONS[self.rng.below(CONDITIONS.len())];
        let wheel_drive = WHEEL_DRIVES[self.rng.below(WHEEL_DRIVES.len())];
        let engine = format!(
            "{:.1}L-V{}",
            self.rng.uniform(1.0..5.7),
            [4, 6, 8][self.rng.below(3)]
        );
        Some(vec![
            model,
            make.to_string(),
            vehicle_type.to_string(),
            year,
            condition.to_string(),
            wheel_drive.to_string(),
            doors.to_string(),
            engine,
        ])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.gen.rows - self.produced;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CarRows {}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::detect_violations;

    #[test]
    fn clean_data_satisfies_rules() {
        let ds = CarGenerator::default().with_rows(600).generate();
        assert!(detect_violations(&ds, &CarGenerator::rules()).is_empty());
    }

    #[test]
    fn doors_follow_type_for_acura() {
        let ds = CarGenerator::default().with_rows(400).generate();
        let make = ds.schema().attr_id("Make").unwrap();
        let typ = ds.schema().attr_id("Type").unwrap();
        let doors = ds.schema().attr_id("Doors").unwrap();
        for t in ds.tuples() {
            if t.value(make) == "acura" {
                assert_eq!(t.value(doors), CarGenerator::acura_doors_for(t.value(typ)));
            }
        }
    }

    #[test]
    fn car_is_sparser_than_hai() {
        // Sparsity in the paper's sense: the rule-relevant groups of CAR have
        // fewer supporting tuples than those of HAI, so co-occurrence models
        // have less evidence per value.  Compare tuples per FD reason group.
        let car = CarGenerator::default().with_rows(1000).generate();
        let hai = crate::HaiGenerator::default().with_rows(1000).generate();
        let car_groups = car
            .cooccurrence(
                car.schema().attr_id("Model").unwrap(),
                car.schema().attr_id("Type").unwrap(),
            )
            .len();
        let hai_groups = hai
            .domain(hai.schema().attr_id("ProviderID").unwrap())
            .len();
        let car_density = 1000.0 / car_groups as f64;
        let hai_density = 1000.0 / hai_groups as f64;
        assert!(
            car_density < hai_density,
            "CAR ({car_density:.1} tuples/group) should be sparser than HAI ({hai_density:.1})"
        );
    }

    #[test]
    fn model_determines_make() {
        let ds = CarGenerator::default().with_rows(500).generate();
        let model = ds.schema().attr_id("Model").unwrap();
        let make = ds.schema().attr_id("Make").unwrap();
        let mut map = std::collections::HashMap::new();
        for t in ds.tuples() {
            let prev = map.insert(t.value(model).to_string(), t.value(make).to_string());
            if let Some(prev) = prev {
                assert_eq!(prev, t.value(make));
            }
        }
    }
}

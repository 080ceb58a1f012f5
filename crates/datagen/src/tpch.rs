//! Synthetic TPC-H-style dataset.
//!
//! The paper builds its synthetic dataset by joining the two largest TPC-H
//! tables (`lineitem` and `customer`), constrained by the single FD
//! `CustKey → Address`.  This generator produces the equivalent wide join:
//! every row is one line item annotated with its customer's key, name,
//! address and phone, so the customer attributes repeat across that
//! customer's line items.

use crate::make_dirty;
use crate::stream::{DirtyRowStream, StreamColumn};
use dataset::rng::Rng;
use dataset::{Dataset, DirtyDataset, Schema};
use rules::{parse_rules, RuleSet};

/// Generator for the synthetic TPC-H join.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchGenerator {
    /// Number of distinct customers.
    pub customers: usize,
    /// Number of rows (line items) to generate.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchGenerator {
    fn default() -> Self {
        TpchGenerator {
            customers: 200,
            rows: 5_000,
            seed: 31,
        }
    }
}

const NATIONS: &[&str] = &[
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

impl TpchGenerator {
    /// Set the number of rows.
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Set the number of distinct customers.
    pub fn with_customers(mut self, customers: usize) -> Self {
        self.customers = customers;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The TPC-H rule set of Table 4: `CustKey → Address`.
    pub fn rules() -> RuleSet {
        parse_rules("FD: CustKey -> Address").expect("the TPC-H rule set is well-formed")
    }

    /// The TPC-H join schema (customer attributes, then line-item ones).
    pub fn schema() -> Schema {
        Schema::new(&[
            "CustKey",
            "CustName",
            "Address",
            "Nation",
            "Phone",
            "OrderKey",
            "PartKey",
            "Quantity",
            "ExtendedPrice",
        ])
    }

    /// Customer key of the `i`-th customer (customer master data is a pure
    /// function of the index, so the row stream needs no customer table).
    fn customer_key(i: usize) -> String {
        format!("C{:07}", i + 1)
    }

    /// Customer name of the `i`-th customer.
    fn customer_name(i: usize) -> String {
        format!("Customer#{:09}", i + 1)
    }

    /// Address of the `i`-th customer.
    fn customer_address(i: usize) -> String {
        format!("{} MARKET ST SUITE {}", 100 + (i * 37) % 900, i + 1)
    }

    /// Nation of the `i`-th customer.
    fn customer_nation(i: usize) -> &'static str {
        NATIONS[i % NATIONS.len()]
    }

    /// Phone number of the `i`-th customer.
    fn customer_phone(i: usize) -> String {
        format!(
            "{:02}-{:03}-{:03}-{:04}",
            10 + i % 25,
            i % 1000,
            (i * 7) % 1000,
            (i * 13) % 10_000
        )
    }

    /// Stream the clean rows one at a time.  [`TpchGenerator::generate`]
    /// drains this same stream, so streamed rows are byte-identical to the
    /// materialised dataset whatever the consumer's batch size.
    pub fn row_stream(&self) -> TpchRows {
        TpchRows {
            rng: Rng::seeded(self.seed),
            customers: self.customers.max(1),
            rows: self.rows,
            produced: 0,
        }
    }

    /// Generate the clean dataset by materialising the row stream.
    pub fn generate(&self) -> Dataset {
        let mut ds = Dataset::with_capacity(Self::schema(), self.rows);
        for row in self.row_stream() {
            ds.push_row(row).expect("row matches the TPC-H schema");
        }
        ds
    }

    /// Generate a clean dataset and corrupt it per the paper's protocol.
    pub fn dirty(&self, error_rate: f64, replacement_ratio: f64, seed: u64) -> DirtyDataset {
        let clean = self.generate();
        make_dirty(&clean, &Self::rules(), error_rate, replacement_ratio, seed)
    }

    /// Stream dirty rows: the clean row stream with the rule-related cells
    /// (`CustKey`, `Address`) corrupted by the per-cell streaming protocol —
    /// deterministic in `seed` and independent of how the consumer batches
    /// the stream.  Replacement errors draw another customer's key/address.
    pub fn dirty_row_stream(
        &self,
        error_rate: f64,
        replacement_ratio: f64,
        seed: u64,
    ) -> DirtyRowStream<TpchRows> {
        let n = self.customers.max(1) as u64;
        DirtyRowStream::new(
            self.row_stream(),
            vec![
                StreamColumn::new(
                    0,
                    Box::new(move |draw| Self::customer_key((draw % n) as usize)),
                ),
                StreamColumn::new(
                    2,
                    Box::new(move |draw| Self::customer_address((draw % n) as usize)),
                ),
            ],
            error_rate,
            replacement_ratio,
            seed,
        )
    }
}

/// Iterator over the clean TPC-H rows, in row order (see
/// [`TpchGenerator::row_stream`]).
#[derive(Debug, Clone)]
pub struct TpchRows {
    rng: Rng,
    customers: usize,
    rows: usize,
    produced: usize,
}

impl Iterator for TpchRows {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.produced >= self.rows {
            return None;
        }
        let row = self.produced;
        self.produced += 1;
        let c = self.rng.below(self.customers);
        Some(vec![
            TpchGenerator::customer_key(c),
            TpchGenerator::customer_name(c),
            TpchGenerator::customer_address(c),
            TpchGenerator::customer_nation(c).to_string(),
            TpchGenerator::customer_phone(c),
            format!("O{:08}", row + 1),
            format!("P{:06}", self.rng.range(1..=19_999)),
            format!("{}", self.rng.range(1..=49)),
            format!("{:.2}", self.rng.uniform(900.0..105_000.0)),
        ])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows - self.produced;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TpchRows {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_data_satisfies_the_fd() {
        let ds = TpchGenerator::default().with_rows(800).generate();
        assert!(crate::tests::consistent(&ds, &TpchGenerator::rules()));
    }

    #[test]
    fn customers_repeat_across_line_items() {
        let ds = TpchGenerator::default()
            .with_rows(1000)
            .with_customers(50)
            .generate();
        let cust = ds.schema().attr_id("CustKey").unwrap();
        assert!(ds.domain(cust).len() <= 50);
    }

    #[test]
    fn order_keys_are_unique() {
        let ds = TpchGenerator::default().with_rows(500).generate();
        let order = ds.schema().attr_id("OrderKey").unwrap();
        assert_eq!(ds.domain(order).len(), 500);
    }

    #[test]
    fn dirty_injects_only_on_custkey_and_address() {
        let gen = TpchGenerator::default().with_rows(300);
        let dirty = gen.dirty(0.2, 0.5, 5);
        let schema = dirty.dirty.schema().clone();
        for e in &dirty.errors {
            let name = schema.attr_name(e.cell.attr);
            assert!(
                name == "CustKey" || name == "Address",
                "unexpected attribute {name}"
            );
        }
    }
}

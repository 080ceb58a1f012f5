//! Relation schemas: an ordered list of named attributes.

use mlnw::{CodecError, Decode, Decoder, Encode, Encoder};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an attribute (its position in the schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub usize);

mlnw::codec! { struct AttrId { 0 } }

impl AttrId {
    /// The position of the attribute within its schema.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// An ordered, named list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<String>,
    by_name: HashMap<String, usize>,
}

/// Encoded as the attribute-name list only; the name→position map is
/// derived state, rebuilt on decoding.
impl Encode for Schema {
    fn encode(&self, enc: &mut Encoder) {
        self.attributes.encode(enc);
    }
}

impl Decode for Schema {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Schema::from_names(Vec::decode(dec)?).map_err(CodecError::DuplicateAttribute)
    }
}

impl Schema {
    /// Create a schema from attribute names.
    ///
    /// # Panics
    /// Panics if two attributes share a name: a relation schema must have
    /// distinct attribute names.
    pub fn new<S: AsRef<str>>(attributes: &[S]) -> Self {
        let names = attributes.iter().map(|s| s.as_ref().to_string()).collect();
        Schema::from_names(names)
            .unwrap_or_else(|name| panic!("duplicate attribute name {name:?} in schema"))
    }

    /// The schema of `attributes`, or the first name listed twice.
    pub(crate) fn from_names(attributes: Vec<String>) -> Result<Self, String> {
        let mut by_name = HashMap::with_capacity(attributes.len());
        for (idx, name) in attributes.iter().enumerate() {
            if by_name.insert(name.clone(), idx).is_some() {
                return Err(name.clone());
            }
        }
        Ok(Schema {
            attributes,
            by_name,
        })
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Name of the attribute `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range for this schema.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attributes[id.0]
    }

    /// Look up an attribute by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied().map(AttrId)
    }

    /// All attribute ids, in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attributes.len()).map(AttrId)
    }

    /// All attribute names, in schema order.
    pub fn attr_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|s| s.as_str())
    }

    /// Whether `id` refers to an attribute of this schema.
    pub fn contains(&self, id: AttrId) -> bool {
        id.0 < self.attributes.len()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.attributes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_id() {
        let s = Schema::new(&["HN", "CT", "ST", "PN"]);
        assert_eq!(s.arity(), 4);
        assert_eq!(s.attr_id("CT"), Some(AttrId(1)));
        assert_eq!(s.attr_id("PN"), Some(AttrId(3)));
        assert_eq!(s.attr_id("missing"), None);
        assert_eq!(s.attr_name(AttrId(2)), "ST");
    }

    #[test]
    fn attr_ids_are_ordered() {
        let s = Schema::new(&["a", "b", "c"]);
        let ids: Vec<usize> = s.attr_ids().map(|a| a.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let names: Vec<&str> = s.attr_names().collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_panic() {
        Schema::new(&["a", "a"]);
    }

    #[test]
    fn a_decoded_schema_rebuilds_its_lookup_and_refuses_duplicates() {
        let s = Schema::new(&["HN", "CT"]);
        let back: Schema = mlnw::from_bytes(&mlnw::to_bytes(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.attr_id("CT"), Some(AttrId(1)));
        let twice = mlnw::to_bytes(&vec![String::from("a"), "b".into(), "a".into()]).unwrap();
        assert_eq!(
            mlnw::from_bytes::<Schema>(&twice),
            Err(CodecError::DuplicateAttribute("a".into()))
        );
    }

    #[test]
    fn display_formats() {
        let s = Schema::new(&["x", "y"]);
        assert_eq!(s.to_string(), "(x, y)");
        assert_eq!(AttrId(3).to_string(), "A3");
    }

    #[test]
    fn contains_checks_range() {
        let s = Schema::new(&["a", "b"]);
        assert!(s.contains(AttrId(1)));
        assert!(!s.contains(AttrId(2)));
    }
}

//! String interning for job characteristics.
//!
//! Workload traces repeat the same user names, executables, and queue names
//! tens of thousands of times. Interning them as [`Sym`] handles makes job
//! records small (`Copy`) and makes category keys in the predictors cheap to
//! hash and compare.

use std::collections::HashMap;
use std::num::NonZeroU32;

use qpredict_durable::{Codec, CodecError, Reader, Writer};

/// An interned string handle. Only meaningful relative to the
/// [`SymbolTable`] that produced it.
///
/// Held as its index plus one, so `Option<Sym>` takes four bytes, as
/// `Sym` does: a job's eight characteristics take 32 bytes, not 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(NonZeroU32);

impl Sym {
    /// The handle of the symbol at `index` in its table.
    fn at(index: usize) -> Sym {
        let held = u32::try_from(index)
            .ok()
            .and_then(|i| NonZeroU32::MIN.checked_add(i));
        Sym(held.expect("symbol table overflow"))
    }

    /// The raw index of this symbol in its table.
    #[inline]
    pub fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// An append-only interner mapping strings to dense [`Sym`] handles.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<Box<str>>,
    map: HashMap<Box<str>, Sym>,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its handle. Repeated calls with the same
    /// string return the same handle.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Sym::at(self.names.len());
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Look up a previously interned string without inserting.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// Resolve a handle back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different table and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct symbols interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The handle at position `index` in interning order, if interned.
    pub fn sym_at(&self, index: usize) -> Option<Sym> {
        (index < self.names.len()).then(|| Sym::at(index))
    }

    /// Iterate over `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym::at(i), n.as_ref()))
    }
}

/// A handle is stored as its interning index and decoded against the
/// table it indexes, which must have been restored first (see the
/// [`SymbolTable`] codec).
impl Codec<SymbolTable> for Sym {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.index());
    }
    fn decode(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<Sym, CodecError> {
        let i: usize = r.get()?;
        syms.sym_at(i)
            .ok_or_else(|| r.error(format!("symbol index {i} beyond table of {}", syms.len())))
    }
}

/// The names in interning order, so re-interning them reproduces every
/// handle.
impl Codec for SymbolTable {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.names.len());
        for name in &self.names {
            w.str(name);
        }
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<SymbolTable, CodecError> {
        let n: usize = r.get()?;
        let mut syms = SymbolTable::new();
        for i in 0..n {
            let name = r.str()?;
            if syms.intern(&name).index() != i {
                return Err(r.error(format!("symbol {name:?} listed twice")));
            }
        }
        Ok(syms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("wsmith");
        let b = t.intern("foster");
        let a2 = t.intern("wsmith");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = SymbolTable::new();
        let a = t.intern("q16m");
        assert_eq!(t.resolve(a), "q16m");
        assert_eq!(t.get("q16m"), Some(a));
        assert_eq!(t.get("q64l"), None);
    }

    #[test]
    fn iter_preserves_order() {
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|s| t.intern(s)).collect();
        let collected: Vec<(Sym, String)> = t.iter().map(|(s, n)| (s, n.to_string())).collect();
        assert_eq!(collected.len(), 3);
        for (i, (s, n)) in collected.iter().enumerate() {
            assert_eq!(*s, syms[i]);
            assert_eq!(n, ["a", "b", "c"][i]);
        }
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}

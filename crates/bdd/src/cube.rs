//! Partial assignments extracted from BDD paths.

/// A partial truth assignment over the manager's variables.
///
/// Produced by [`crate::Manager::any_sat`]; variables not forced by the
/// satisfying path remain [`None`] and may be chosen freely by the consumer
/// (the analysis layer fills them with deterministic defaults so witnesses
/// are reproducible).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cube {
    bits: Vec<Option<bool>>,
}

impl Cube {
    /// A cube leaving every one of `num_vars` variables unconstrained.
    pub fn unconstrained(num_vars: u32) -> Self {
        Cube {
            bits: vec![None; num_vars as usize],
        }
    }

    /// Forces `var` to `value`.
    pub fn set(&mut self, var: u32, value: bool) {
        self.bits[var as usize] = Some(value);
    }

    /// The constraint on `var`, if any.
    pub fn get(&self, var: u32) -> Option<bool> {
        self.bits[var as usize]
    }

    /// The value of `var`, defaulting unconstrained variables to `false`.
    pub fn value_or_false(&self, var: u32) -> bool {
        self.bits[var as usize].unwrap_or(false)
    }

    /// Decodes consecutive variables `vars` (MSB first) as an unsigned
    /// integer, defaulting unconstrained bits to zero.
    pub fn decode(&self, vars: &[u32]) -> u64 {
        let mut v = 0u64;
        for &var in vars {
            v = (v << 1) | u64::from(self.value_or_false(var));
        }
        v
    }
}

//! User oracles: anything that can answer a disambiguation question.

use crate::error::ClarifyError;
use crate::route_map::DisambiguationQuestion;

/// Which of the two presented behaviours the user wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// OPTION 1 — the behaviour where the new stanza handles the example
    /// (insertion above the pivot).
    First,
    /// OPTION 2 — the behaviour where the existing stanza keeps handling
    /// the example (insertion below the pivot).
    Second,
}

/// Anything that can answer the disambiguator's questions: a human at a
/// terminal, a script, or a ground-truth intent. `Q` is the rule kind's
/// question type; it defaults to route-map questions.
pub trait UserOracle<Q = DisambiguationQuestion> {
    /// Answers one differential question.
    fn choose(&mut self, question: &Q) -> Result<Choice, ClarifyError>;
}

/// Replays a fixed list of answers; errs when exhausted.
#[derive(Clone, Debug, Default)]
pub struct ScriptedOracle {
    answers: std::collections::VecDeque<Choice>,
}

impl ScriptedOracle {
    /// Creates an oracle that returns the given answers in order.
    pub fn new(answers: impl IntoIterator<Item = Choice>) -> Self {
        ScriptedOracle {
            answers: answers.into_iter().collect(),
        }
    }
}

impl<Q> UserOracle<Q> for ScriptedOracle {
    fn choose(&mut self, _q: &Q) -> Result<Choice, ClarifyError> {
        self.answers
            .pop_front()
            .ok_or(ClarifyError::OracleExhausted)
    }
}

/// Adapts a closure into an oracle (handy for interactive CLIs and tests).
pub struct FnOracle<F>(pub F);

impl<Q, F> UserOracle<Q> for FnOracle<F>
where
    F: FnMut(&Q) -> Choice,
{
    fn choose(&mut self, q: &Q) -> Result<Choice, ClarifyError> {
        Ok((self.0)(q))
    }
}

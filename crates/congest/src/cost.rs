//! Round and message accounting.
//!
//! The paper's results are statements about *round complexity* in the CONGEST
//! model. Every distributed operation in this crate returns a [`RoundCost`]
//! describing how many synchronous rounds it used and how many messages were
//! sent. Costs compose: sequential composition adds rounds, parallel
//! composition (independent operations that can share rounds) takes the
//! maximum.

/// Cost of a distributed computation: rounds, messages and the largest
/// message payload (in machine words of `O(log n)` bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundCost {
    /// Number of synchronous rounds.
    pub rounds: u64,
    /// Total number of point-to-point messages sent.
    pub messages: u64,
    /// Largest message size observed, in `O(log n)`-bit words.
    pub max_message_words: u64,
}

impl RoundCost {
    /// The zero cost.
    pub const ZERO: RoundCost = RoundCost {
        rounds: 0,
        messages: 0,
        max_message_words: 0,
    };

    /// Creates a cost with the given number of rounds and no messages.
    pub fn rounds(rounds: u64) -> Self {
        RoundCost {
            rounds,
            ..RoundCost::ZERO
        }
    }

    /// Creates a cost record from explicit fields.
    pub fn new(rounds: u64, messages: u64, max_message_words: u64) -> Self {
        RoundCost {
            rounds,
            messages,
            max_message_words,
        }
    }

    /// Sequential composition: the second computation starts after the first.
    #[must_use]
    pub fn then(self, other: RoundCost) -> RoundCost {
        RoundCost {
            rounds: self.rounds + other.rounds,
            messages: self.messages + other.messages,
            max_message_words: self.max_message_words.max(other.max_message_words),
        }
    }

    /// Parallel composition: both computations run concurrently on disjoint
    /// edges/rounds budgets, so the round count is the maximum and messages
    /// add up.
    #[must_use]
    pub fn in_parallel(self, other: RoundCost) -> RoundCost {
        RoundCost {
            rounds: self.rounds.max(other.rounds),
            messages: self.messages + other.messages,
            max_message_words: self.max_message_words.max(other.max_message_words),
        }
    }

    /// Repeats this cost `k` times sequentially.
    #[must_use]
    pub fn repeat(self, k: u64) -> RoundCost {
        RoundCost {
            rounds: self.rounds * k,
            messages: self.messages * k,
            max_message_words: self.max_message_words,
        }
    }

    /// Accumulates another cost sequentially in place.
    pub fn add_sequential(&mut self, other: RoundCost) {
        *self = self.then(other);
    }

    /// Accumulates another cost in parallel in place.
    pub fn add_parallel(&mut self, other: RoundCost) {
        *self = self.in_parallel(other);
    }
}

impl std::fmt::Display for RoundCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} messages (max {} words/message)",
            self.rounds, self.messages, self.max_message_words
        )
    }
}

impl std::iter::Sum for RoundCost {
    fn sum<I: Iterator<Item = RoundCost>>(iter: I) -> RoundCost {
        iter.fold(RoundCost::ZERO, RoundCost::then)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_composition() {
        let a = RoundCost::new(10, 100, 2);
        let b = RoundCost::new(5, 50, 4);
        let seq = a.then(b);
        assert_eq!(seq.rounds, 15);
        assert_eq!(seq.messages, 150);
        assert_eq!(seq.max_message_words, 4);
        let par = a.in_parallel(b);
        assert_eq!(par.rounds, 10);
        assert_eq!(par.messages, 150);
    }

    #[test]
    fn repeat_and_sum() {
        let a = RoundCost::new(3, 7, 1);
        let r = a.repeat(4);
        assert_eq!(r.rounds, 12);
        assert_eq!(r.messages, 28);
        let total: RoundCost = vec![a, a, a].into_iter().sum();
        assert_eq!(total.rounds, 9);
    }

    #[test]
    fn display_formats() {
        let a = RoundCost::new(3, 7, 1);
        assert_eq!(a.to_string(), "3 rounds, 7 messages (max 1 words/message)");
    }

    #[test]
    fn in_place_accumulation() {
        let mut c = RoundCost::ZERO;
        c.add_sequential(RoundCost::rounds(5));
        c.add_parallel(RoundCost::rounds(3));
        assert_eq!(c.rounds, 5);
        c.add_sequential(RoundCost::rounds(2));
        assert_eq!(c.rounds, 7);
    }
}

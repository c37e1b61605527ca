//! Reply verification: what one connection knows about every key, and
//! the checks that knowledge supports.

use crate::gen::{decode_value, KEYS};

/// Why a value was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// The key is gone.
    Missing,
    /// Not bytes this benchmark ever wrote.
    Corrupt,
    /// A well-formed value that belongs to another key.
    Foreign,
    /// Older than a version already acknowledged or observed.
    Stale,
    /// Newer than anything that was ever sent.
    FromTheFuture,
}

/// Per-connection view of the key space.
///
/// `observed[k]` is the newest version of `k` this connection has seen —
/// acknowledged to it as the writer, or returned to it by a GET. A GET
/// takes its floor from `observed` when it is *sent*: requests pipelined
/// on one connection may execute in different worker batches, so a GET
/// sent before a PUT's ack arrives may legitimately miss that PUT.
#[derive(Debug, Clone)]
pub struct Checker {
    observed: Vec<u64>,
    /// Newest version sent per key (only this connection's partition
    /// moves). An unanswered PUT may or may not have applied, so the
    /// post-restart sweep accepts anything in `acked..=sent`.
    sent: Vec<u64>,
    /// Newest version acknowledged per key, for the sweep.
    acked: Vec<u64>,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker::new()
    }
}

impl Checker {
    /// State after the preload: every key at version 0.
    pub fn new() -> Checker {
        Checker {
            observed: vec![0; KEYS as usize],
            sent: vec![0; KEYS as usize],
            acked: vec![0; KEYS as usize],
        }
    }

    /// The version the next PUT of `key_id` carries.
    pub fn next_version(&mut self, key_id: u64) -> u64 {
        self.sent[key_id as usize] += 1;
        self.sent[key_id as usize]
    }

    pub fn put_acked(&mut self, key_id: u64, version: u64) {
        let k = key_id as usize;
        self.acked[k] = self.acked[k].max(version);
        self.observed[k] = self.observed[k].max(version);
    }

    /// The oldest version a GET sent now may return.
    pub fn floor(&self, key_id: u64) -> u64 {
        self.observed[key_id as usize]
    }

    /// Checks a GET reply against the floor taken when it was sent.
    pub fn check_get(&mut self, key_id: u64, floor: u64, reply: Option<&[u8]>) -> Result<(), Flag> {
        let version = check_value(key_id, reply)?;
        if version < floor {
            return Err(Flag::Stale);
        }
        let k = key_id as usize;
        self.observed[k] = self.observed[k].max(version);
        Ok(())
    }

    /// Checks what a key holds after a restart. Only meaningful on the
    /// key's writer connection, which alone knows `acked` and `sent`.
    pub fn check_after_restart(&self, key_id: u64, found: Option<&[u8]>) -> Result<(), Flag> {
        let version = check_value(key_id, found)?;
        if version < self.acked[key_id as usize] {
            Err(Flag::Stale)
        } else if version > self.sent[key_id as usize] {
            Err(Flag::FromTheFuture)
        } else {
            Ok(())
        }
    }
}

fn check_value(key_id: u64, value: Option<&[u8]>) -> Result<u64, Flag> {
    let (found_key, version) = decode_value(value.ok_or(Flag::Missing)?).ok_or(Flag::Corrupt)?;
    if found_key != key_id {
        return Err(Flag::Foreign);
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::encode_value;

    #[test]
    fn stale_and_foreign_values_are_flagged() {
        let mut c = Checker::new();
        let v1 = c.next_version(4);
        let v2 = c.next_version(4);
        c.put_acked(4, v1);
        c.put_acked(4, v2);
        let floor = c.floor(4);
        assert_eq!(floor, 2);
        // Stale: the server answers with a version older than one it
        // already acknowledged.
        assert_eq!(
            c.check_get(4, floor, Some(&encode_value(4, 1))),
            Err(Flag::Stale)
        );
        // Foreign: a perfectly valid value of a different key.
        assert_eq!(
            c.check_get(4, floor, Some(&encode_value(6, 2))),
            Err(Flag::Foreign)
        );
        assert_eq!(c.check_get(4, floor, None), Err(Flag::Missing));
        assert_eq!(c.check_get(4, floor, Some(&[0u8; 64])), Err(Flag::Corrupt));
        assert_eq!(c.check_get(4, floor, Some(&encode_value(4, 2))), Ok(()));
    }

    #[test]
    fn reads_are_monotonic_per_connection() {
        let mut c = Checker::new();
        // Another connection's key: this one only ever reads it.
        assert_eq!(
            c.check_get(5, c.floor(5), Some(&encode_value(5, 9))),
            Ok(())
        );
        assert_eq!(
            c.check_get(5, c.floor(5), Some(&encode_value(5, 8))),
            Err(Flag::Stale)
        );
        // A GET sent before that observation keeps its older floor.
        assert_eq!(c.check_get(5, 0, Some(&encode_value(5, 8))), Ok(()));
    }

    #[test]
    fn restart_sweep_accepts_acked_to_sent_only() {
        let mut c = Checker::new();
        for _ in 0..3 {
            c.next_version(2);
        }
        c.put_acked(2, 2); // version 3 was sent but never answered
        assert_eq!(
            c.check_after_restart(2, Some(&encode_value(2, 1))),
            Err(Flag::Stale)
        );
        assert_eq!(c.check_after_restart(2, Some(&encode_value(2, 2))), Ok(()));
        assert_eq!(c.check_after_restart(2, Some(&encode_value(2, 3))), Ok(()));
        assert_eq!(
            c.check_after_restart(2, Some(&encode_value(2, 4))),
            Err(Flag::FromTheFuture)
        );
        assert_eq!(c.check_after_restart(2, None), Err(Flag::Missing));
        // Untouched keys still hold the preload.
        assert_eq!(c.check_after_restart(0, Some(&encode_value(0, 0))), Ok(()));
    }
}

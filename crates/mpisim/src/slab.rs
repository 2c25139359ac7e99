//! A generational slab: the dense store behind [`crate::World`]'s request
//! and job tables.
//!
//! Values live in a `Vec` of slots. A freed slot goes on a LIFO free list
//! and is reused by the next insert, so the slab holds as many slots as
//! were ever live at once, not as many as were ever inserted. A handle
//! packs `generation << 32 | slot`. Removing a value bumps its slot's
//! generation, so every handle issued for the old value stops resolving
//! even after the slot is reused. A slot whose generation would wrap is
//! retired instead of reused: a stale handle never aliases a live value.
//!
//! Nothing iterates a slab. Handle values depend on the order of inserts
//! and removes; keeping them out of iteration keeps them out of results.

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Vacant slot indices; the last pushed is reused first.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

fn split(handle: u64) -> (usize, u32) {
    (handle as u32 as usize, (handle >> 32) as u32)
}

impl<T> Slab<T> {
    /// Store `value` and return its handle.
    pub(crate) fn insert(&mut self, value: T) -> u64 {
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize].value = Some(value);
                index
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("at most 2^32 live slab slots");
                self.slots.push(Slot {
                    generation: 0,
                    value: Some(value),
                });
                index
            }
        };
        (u64::from(self.slots[index as usize].generation) << 32) | u64::from(index)
    }

    /// The value behind `handle`; `None` once it was removed, or for a
    /// handle this slab never issued.
    pub(crate) fn get(&self, handle: u64) -> Option<&T> {
        let (index, generation) = split(handle);
        match self.slots.get(index) {
            Some(slot) if slot.generation == generation => slot.value.as_ref(),
            _ => None,
        }
    }

    /// Mutable counterpart of [`get`](Slab::get).
    pub(crate) fn get_mut(&mut self, handle: u64) -> Option<&mut T> {
        let (index, generation) = split(handle);
        match self.slots.get_mut(index) {
            Some(slot) if slot.generation == generation => slot.value.as_mut(),
            _ => None,
        }
    }

    /// Take the value behind `handle` out and free its slot.
    pub(crate) fn remove(&mut self, handle: u64) -> Option<T> {
        let (index, generation) = split(handle);
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation {
            return None;
        }
        let value = slot.value.take()?;
        if let Some(next) = slot.generation.checked_add(1) {
            slot.generation = next;
            self.free.push(index as u32);
        }
        Some(value)
    }

    /// Number of live values.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.value.is_some()).count()
    }

    /// Number of slots allocated, live or free: the slab's memory.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_slots_are_reused_last_in_first_out() {
        let mut slab = Slab::default();
        let a = slab.insert('a');
        let b = slab.insert('b');
        assert_eq!(slab.remove(a), Some('a'));
        assert_eq!(slab.remove(b), Some('b'));
        let c = slab.insert('c');
        let d = slab.insert('d');
        assert_eq!(c as u32, b as u32, "the slot freed last is reused first");
        assert_eq!(d as u32, a as u32);
        assert_eq!((slab.len(), slab.slots()), (2, 2));
    }

    #[test]
    fn a_slot_is_retired_before_its_generation_wraps() {
        let mut slab = Slab::default();
        let first = slab.insert(0);
        slab.slots[0].generation = u32::MAX;
        let last = u64::from(u32::MAX) << 32;
        assert_eq!(slab.remove(last), Some(0));
        let next = slab.insert(1);
        assert_eq!(next, 1, "a fresh slot, not generation 0 of slot 0");
        assert_eq!(slab.get(first), None);
        assert_eq!(slab.slots(), 2);
    }
}

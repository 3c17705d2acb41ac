//! [`Column`]: a read-only view into a shared, reference-counted buffer.
//!
//! A division stores all of its communities' members in one buffer and all
//! of their tightness values in another; each [`crate::LocalCommunity`]
//! holds a `Column` view of its own run in each. Loading, cloning and
//! dropping a division therefore cost one allocation per column, not two
//! per community, and a view derefs to a plain slice wherever a community
//! is read.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A contiguous, immutable run `start..end` of a shared `Arc<[T]>`.
///
/// Derefs to `[T]`; `Clone` is a reference-count increment; equality and
/// `Debug` go by contents, never by which buffer backs the view. The range
/// is kept in `u32`s, so one backing buffer holds at most `u32::MAX`
/// elements.
#[derive(Clone)]
pub struct Column<T> {
    data: Arc<[T]>,
    start: u32,
    end: u32,
}

impl<T> Column<T> {
    /// The sub-view `range` of this view (indices relative to it), sharing
    /// the same buffer.
    ///
    /// # Panics
    /// If `range` is decreasing or reaches past this view's end, as slice
    /// indexing would.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "column view {range:?} out of bounds of a view of {} elements",
            self.len()
        );
        // In bounds of a view whose own bounds are u32s, so both fit.
        Column {
            data: Arc::clone(&self.data),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// The viewed elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.start as usize..self.end as usize]
    }

    /// Whether `views` tile one buffer exactly, in order: all share a
    /// buffer, the first starts at its beginning, each starts where the
    /// previous one ended, and the last ends at the buffer's end. True of
    /// no views at all.
    pub(crate) fn tile<'a>(views: impl IntoIterator<Item = &'a Column<T>>) -> bool
    where
        T: 'a,
    {
        let mut prev: Option<&Column<T>> = None;
        for v in views {
            let continues = match prev {
                None => v.start == 0,
                Some(p) => Arc::ptr_eq(&p.data, &v.data) && p.end == v.start,
            };
            if !continues {
                return false;
            }
            prev = Some(v);
        }
        prev.is_none_or(|p| p.end as usize == p.data.len())
    }
}

impl<T> Deref for Column<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column::from(Arc::from([]))
    }
}

impl<T> From<Vec<T>> for Column<T> {
    fn from(v: Vec<T>) -> Self {
        Column::from(Arc::from(v))
    }
}

/// A view of the whole buffer.
///
/// # Panics
/// If `data` holds more than `u32::MAX` elements.
impl<T> From<Arc<[T]>> for Column<T> {
    fn from(data: Arc<[T]>) -> Self {
        let end =
            u32::try_from(data.len()).expect("a column buffer holds at most u32::MAX elements");
        Column {
            data,
            start: 0,
            end,
        }
    }
}

impl<'a, T> IntoIterator for &'a Column<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: PartialEq> PartialEq for Column<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_deref_compare_and_share_their_buffer() {
        let whole = Column::from(vec![1u32, 2, 3, 4, 5]);
        let a = whole.slice(0..2);
        let b = whole.slice(2..5);
        assert_eq!(*a, [1, 2]);
        assert_eq!(b.slice(1..3).as_slice(), &[4, 5]);
        assert_eq!(b, Column::from(vec![3, 4, 5]), "equality goes by contents");
        assert_eq!(format!("{a:?}"), "[1, 2]");
        assert_eq!((&b).into_iter().sum::<u32>(), 12);
        assert_eq!(a.as_ptr_range().end, b.as_ptr());
        assert!(Column::tile([&a, &b]));
        assert!(!Column::tile([&b, &a]), "out of order");
        assert!(!Column::tile([&a]), "the buffer's tail is not covered");
        assert!(
            !Column::tile([&a, &Column::from(vec![3, 4, 5])]),
            "two buffers"
        );
        assert!(Column::<u32>::tile([]));
        assert!(Column::<u32>::default().is_empty());
    }

    #[test]
    #[should_panic]
    fn slicing_past_the_view_panics() {
        let _ = Column::from(vec![1u32, 2, 3]).slice(1..2).slice(0..2);
    }
}

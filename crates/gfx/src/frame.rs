//! Frame buffers.
//!
//! A [`Frame`] carries a low-resolution RGB raster — enough for the
//! intelligent client's computer vision, DeskBench's pixel comparison and
//! entropy estimation — plus the *logical* resolution (the paper renders at
//! 1920×1080) that determines PCIe copy and network sizes.

/// Logical display resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// The paper's benchmark resolution.
    pub const FULL_HD: Resolution = Resolution {
        width: 1920,
        height: 1080,
    };

    /// Raw RGBA frame size in bytes at this resolution.
    pub fn raw_bytes(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height) * 4
    }
}

impl Default for Resolution {
    fn default() -> Self {
        Resolution::FULL_HD
    }
}

/// The simulation raster dimensions: 96×54 preserves the 16:9 aspect ratio
/// and is large enough for cell-based object recognition.
pub const SIM_WIDTH: usize = 96;
/// See [`SIM_WIDTH`].
pub const SIM_HEIGHT: usize = 54;

/// Bytes per block in [`Frame::diff_fraction`]: 32 whole pixels, and the
/// raster is a whole number of blocks.
const DIFF_BLOCK: usize = 96;
const _: () = assert!(
    DIFF_BLOCK.is_multiple_of(3) && (SIM_WIDTH * SIM_HEIGHT * 3).is_multiple_of(DIFF_BLOCK)
);

/// A rendered frame.
///
/// # Example
///
/// ```
/// use pictor_gfx::Frame;
/// let mut f = Frame::new(7);
/// f.set_pixel(3, 2, [10, 20, 30]);
/// assert_eq!(f.pixel(3, 2), [10, 20, 30]);
/// assert_eq!(f.id(), 7);
/// ```
#[derive(Debug, PartialEq)]
pub struct Frame {
    id: u64,
    resolution: Resolution,
    pixels: Vec<u8>, // SIM_WIDTH * SIM_HEIGHT * 3, row-major RGB
}

impl Clone for Frame {
    fn clone(&self) -> Self {
        Frame {
            id: self.id,
            resolution: self.resolution,
            pixels: self.pixels.clone(),
        }
    }

    /// Reuses the destination's pixel buffer — hot paths that keep a
    /// last-frame copy clone without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.resolution = source.resolution;
        self.pixels.clone_from(&source.pixels);
    }
}

impl Frame {
    /// Creates a black frame with the given id at Full-HD logical resolution.
    pub fn new(id: u64) -> Self {
        Frame {
            id,
            resolution: Resolution::FULL_HD,
            pixels: vec![0; SIM_WIDTH * SIM_HEIGHT * 3],
        }
    }

    /// Creates a black frame with an explicit logical resolution.
    pub fn with_resolution(id: u64, resolution: Resolution) -> Self {
        Frame {
            id,
            resolution,
            pixels: vec![0; SIM_WIDTH * SIM_HEIGHT * 3],
        }
    }

    /// Frame sequence number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Overwrites the frame sequence number (pooled frames are re-stamped
    /// when their buffer is reused for a new render).
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Logical resolution (drives copy/transfer byte counts).
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Raw frame size in bytes at the logical resolution.
    pub fn raw_bytes(&self) -> u64 {
        self.resolution.raw_bytes()
    }

    /// Raster width in simulation pixels.
    pub fn width(&self) -> usize {
        SIM_WIDTH
    }

    /// Raster height in simulation pixels.
    pub fn height(&self) -> usize {
        SIM_HEIGHT
    }

    /// RGB value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        let i = self.index(x, y);
        [self.pixels[i], self.pixels[i + 1], self.pixels[i + 2]]
    }

    /// Sets the RGB value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = self.index(x, y);
        self.pixels[i..i + 3].copy_from_slice(&rgb);
    }

    fn index(&self, x: usize, y: usize) -> usize {
        assert!(
            x < SIM_WIDTH && y < SIM_HEIGHT,
            "pixel ({x},{y}) out of bounds"
        );
        (y * SIM_WIDTH + x) * 3
    }

    /// Raw pixel bytes (row-major RGB).
    pub fn bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Mutable raw pixel bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.pixels
    }

    /// Shannon entropy of the pixel bytes, in bits per byte (0–8).
    ///
    /// Drives the compression model: noisy frames compress poorly.
    pub fn entropy(&self) -> f64 {
        let mut counts = [0u64; 256];
        for &b in &self.pixels {
            counts[b as usize] += 1;
        }
        let n = self.pixels.len() as f64;
        let mut h = 0.0;
        for &c in &counts {
            if c > 0 {
                let p = c as f64 / n;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Fraction of pixels that differ from `other` in any channel.
    ///
    /// Drives both the compression model (VNC encodes deltas) and
    /// DeskBench's frame-similarity gate.
    ///
    /// Branch-free, so it vectorizes: each block of bytes becomes 0/1
    /// inequality flags, which are ORed three at a time, one OR per pixel.
    /// That holds because a pixel is three consecutive bytes and every
    /// block starts on a pixel and holds whole pixels.
    pub fn diff_fraction(&self, other: &Frame) -> f64 {
        let mut diff = 0usize;
        let blocks = self.pixels.chunks_exact(DIFF_BLOCK);
        for (a, b) in blocks.zip(other.pixels.chunks_exact(DIFF_BLOCK)) {
            let mut flags = [0u8; DIFF_BLOCK];
            for ((f, x), y) in flags.iter_mut().zip(a).zip(b) {
                *f = u8::from(x != y);
            }
            diff += flags
                .chunks_exact(3)
                .map(|p| usize::from(p[0] | p[1] | p[2]))
                .sum::<usize>();
        }
        diff as f64 / (SIM_WIDTH * SIM_HEIGHT) as f64
    }

    /// Mean absolute per-channel difference versus `other`, normalized to
    /// `[0, 1]`. A tolerance-based similarity metric (DeskBench's tunable
    /// comparison).
    pub fn mean_abs_diff(&self, other: &Frame) -> f64 {
        let sum: u64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum();
        sum as f64 / (self.pixels.len() as f64 * 255.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The per-pixel loop [`Frame::diff_fraction`] replaced: the reference
    /// it must equal bit for bit.
    fn diff_fraction_reference(a: &Frame, b: &Frame) -> f64 {
        let mut diff = 0usize;
        let total = SIM_WIDTH * SIM_HEIGHT;
        for i in 0..total {
            if a.pixels[i * 3..i * 3 + 3] != b.pixels[i * 3..i * 3 + 3] {
                diff += 1;
            }
        }
        diff as f64 / total as f64
    }

    #[test]
    fn diff_fraction_matches_the_per_pixel_reference() {
        let mut rng = SmallRng::seed_from_u64(0xd1ff);
        let n = SIM_WIDTH * SIM_HEIGHT * 3;
        let mut base = Frame::new(0);
        base.bytes_mut().fill_with(|| rng.gen_range(0..=255u8));
        let mut pairs = Vec::new();
        // One channel of the first or of the last pixel.
        for i in [0, 1, 2, n - 3, n - 2, n - 1] {
            let mut other = base.clone();
            other.bytes_mut()[i] ^= 1 << rng.gen_range(0..8u32);
            pairs.push((base.clone(), other));
        }
        // Random frames with 0 to all of their bytes changed.
        for _ in 0..200 {
            let mut a = Frame::new(1);
            a.bytes_mut().fill_with(|| rng.gen_range(0..=3u8));
            let mut b = a.clone();
            let changes = rng.gen_range(0..=n);
            for _ in 0..changes {
                let i = rng.gen_range(0..n);
                b.bytes_mut()[i] = rng.gen_range(0..=3u8);
            }
            pairs.push((a, b));
        }
        for (i, (a, b)) in pairs.iter().enumerate() {
            let want = diff_fraction_reference(a, b);
            assert_eq!(a.diff_fraction(b).to_bits(), want.to_bits(), "pair {i}");
            assert_eq!(b.diff_fraction(a).to_bits(), want.to_bits(), "pair {i}");
        }
        assert_eq!(pairs[0].0.diff_fraction(&pairs[0].1), 1.0 / 5184.0);
    }

    #[test]
    fn new_frame_is_black() {
        let f = Frame::new(0);
        assert!(f.bytes().iter().all(|&b| b == 0));
        assert_eq!(f.pixel(0, 0), [0, 0, 0]);
        assert_eq!(f.width(), SIM_WIDTH);
        assert_eq!(f.height(), SIM_HEIGHT);
    }

    #[test]
    fn full_hd_raw_bytes() {
        assert_eq!(Resolution::FULL_HD.raw_bytes(), 1920 * 1080 * 4);
        assert_eq!(Frame::new(0).raw_bytes(), 8_294_400);
    }

    #[test]
    fn set_and_get_pixel() {
        let mut f = Frame::new(1);
        f.set_pixel(95, 53, [1, 2, 3]);
        assert_eq!(f.pixel(95, 53), [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let f = Frame::new(0);
        let _ = f.pixel(96, 0);
    }

    #[test]
    fn entropy_of_constant_frame_is_zero() {
        let f = Frame::new(0);
        assert_eq!(f.entropy(), 0.0);
    }

    #[test]
    fn entropy_increases_with_noise() {
        let mut flat = Frame::new(0);
        for y in 0..SIM_HEIGHT {
            for x in 0..SIM_WIDTH {
                flat.set_pixel(x, y, [100, 100, 100]);
            }
        }
        let mut noisy = Frame::new(1);
        for y in 0..SIM_HEIGHT {
            for x in 0..SIM_WIDTH {
                let v = ((x * 7 + y * 13) % 256) as u8;
                noisy.set_pixel(x, y, [v, v.wrapping_add(31), v.wrapping_mul(3)]);
            }
        }
        assert!(noisy.entropy() > flat.entropy() + 3.0);
        assert!(noisy.entropy() <= 8.0);
    }

    #[test]
    fn diff_fraction_bounds() {
        let a = Frame::new(0);
        let mut b = Frame::new(1);
        assert_eq!(a.diff_fraction(&b), 0.0);
        for y in 0..SIM_HEIGHT {
            for x in 0..SIM_WIDTH {
                b.set_pixel(x, y, [255, 255, 255]);
            }
        }
        assert_eq!(a.diff_fraction(&b), 1.0);
        assert!((a.mean_abs_diff(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diff_fraction_partial() {
        let a = Frame::new(0);
        let mut b = Frame::new(1);
        // Change exactly one row of pixels.
        for x in 0..SIM_WIDTH {
            b.set_pixel(x, 0, [9, 9, 9]);
        }
        let expected = SIM_WIDTH as f64 / (SIM_WIDTH * SIM_HEIGHT) as f64;
        assert!((a.diff_fraction(&b) - expected).abs() < 1e-12);
    }
}

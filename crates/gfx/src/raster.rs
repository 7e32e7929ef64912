//! Deterministic rasterization of scene objects.
//!
//! Benchmark applications describe their world as a camera-relative list of
//! [`SceneObject`]s; this module draws them into a [`Frame`] raster. The same
//! object class renders with *different pixels at different positions,
//! distances and animation phases* — the property that defeats DeskBench's
//! pixel-matching on 3D content (paper §4) while remaining learnable for a
//! CNN.

use crate::frame::{Frame, SIM_HEIGHT, SIM_WIDTH};

/// Bytes in one raster row (RGB).
const ROW_BYTES: usize = SIM_WIDTH * 3;

/// The background's per-channel weights (warm neutral: R ≥ G ≥ B), repeated
/// across a row so the background loop reads them with unit stride.
const ROW_WEIGHTS: [f64; ROW_BYTES] = {
    let mut w = [0.0; ROW_BYTES];
    let mut i = 0;
    while i < ROW_BYTES {
        w[i] = [0.80, 0.74, 0.68][i % 3];
        i += 1;
    }
    w
};

/// `x as u8` for every `f64`: NaN and anything below 1 give 0, anything
/// from 255 up gives 255, and the rest truncate toward zero.
///
/// Rust's saturating cast stays scalar in loops (LLVM keeps `fptoui.sat`
/// per element); this form vectorizes. After the clamp and `trunc`, the
/// value is an integer in `[0, 255]`, and adding 2⁵² to such a value is
/// exact and leaves it in the low bits of the mantissa, so its low byte is
/// the value. A NaN falls to 0 at `max`, which returns the other operand.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` keeps a NaN, which must become 0
fn saturating_u8(x: f64) -> u8 {
    (x.max(0.0).min(255.0).trunc() + 4_503_599_627_370_496.0).to_bits() as u8
}

/// An object instance visible in a frame, in normalized screen coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneObject {
    /// Object class (application-defined; 0–15 supported by the palette).
    pub class: u8,
    /// Horizontal center in `[0, 1]`.
    pub x: f64,
    /// Vertical center in `[0, 1]`.
    pub y: f64,
    /// Apparent size in `[0, 1]` (fraction of frame height).
    pub size: f64,
    /// Animation/viewing-angle phase in `[0, 1]`; shifts the object's shading
    /// so the same object never repeats pixel-exactly.
    pub phase: f64,
}

impl SceneObject {
    /// Creates an object, clamping fields into their documented ranges.
    pub fn new(class: u8, x: f64, y: f64, size: f64, phase: f64) -> Self {
        SceneObject {
            class,
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
            size: size.clamp(0.01, 1.0),
            phase: phase.rem_euclid(1.0),
        }
    }
}

/// Base colors per object class: distinct hues a per-cell classifier can
/// separate even with shading variation.
const PALETTE: [[u8; 3]; 16] = [
    [200, 40, 40],   // 0: red
    [40, 200, 40],   // 1: green
    [40, 40, 200],   // 2: blue
    [200, 200, 40],  // 3: yellow
    [200, 40, 200],  // 4: magenta
    [40, 200, 200],  // 5: cyan
    [220, 120, 40],  // 6: orange
    [120, 220, 40],  // 7: lime
    [40, 120, 220],  // 8: azure
    [220, 40, 120],  // 9: pink
    [120, 40, 220],  // 10: violet
    [40, 220, 120],  // 11: spring
    [160, 160, 160], // 12: grey
    [220, 220, 220], // 13: white-ish
    [100, 60, 20],   // 14: brown
    [60, 100, 20],   // 15: olive
];

/// Draws a background gradient plus every object into a fresh frame.
///
/// `camera` pans the background horizontally (normalized units), and
/// `ambient` in `[0, 1]` scales the background brightness — both vary per
/// app and per frame so consecutive frames always differ.
///
/// # Example
///
/// ```
/// use pictor_gfx::{draw_scene, SceneObject};
/// let objs = [SceneObject::new(1, 0.5, 0.5, 0.2, 0.0)];
/// let frame = draw_scene(3, &objs, 0.0, 0.4);
/// assert_eq!(frame.id(), 3);
/// // The object's green dominates its center pixel.
/// let px = frame.pixel(48, 27);
/// assert!(px[1] > px[0] && px[1] > px[2]);
/// ```
pub fn draw_scene(frame_id: u64, objects: &[SceneObject], camera: f64, ambient: f64) -> Frame {
    let mut frame = Frame::new(frame_id);
    draw_scene_into(&mut frame, objects, camera, ambient);
    frame
}

/// [`draw_scene`] into an existing frame, overwriting every pixel.
///
/// Allocation-free, so pooled render paths can reuse one [`Frame`] buffer;
/// the caller re-stamps the id via [`Frame::set_id`]. Pixels are bit-identical
/// to [`draw_scene`]'s.
pub fn draw_scene_into(frame: &mut Frame, objects: &[SceneObject], camera: f64, ambient: f64) {
    let ambient = ambient.clamp(0.0, 1.0);
    let amb = 0.5 + 0.5 * ambient;
    // Background: a warm-neutral vertical gradient panned by the camera.
    // Neutral hue keeps every palette color separable from the backdrop.
    // The horizontal term depends only on x, so its sin() is hoisted out of
    // the row loop (one evaluation per column instead of per pixel) and
    // stored once per channel: the row loop then runs over bytes with unit
    // stride and vectorizes.
    let mut col = [0.0f64; ROW_BYTES];
    for (x, c) in col.chunks_exact_mut(3).enumerate() {
        let fx = (x as f64 / SIM_WIDTH as f64 + camera).rem_euclid(1.0);
        // Non-harmonic horizontal frequency so no camera shift maps the
        // background onto itself.
        c.fill(25.0 * (fx * std::f64::consts::TAU * 1.37).sin());
    }
    for (y, bytes) in frame.bytes_mut().chunks_exact_mut(ROW_BYTES).enumerate() {
        let row = 40.0 + 60.0 * (y as f64 / SIM_HEIGHT as f64);
        for ((b, c), w) in bytes.iter_mut().zip(&col).zip(&ROW_WEIGHTS) {
            *b = saturating_u8((row + c) * amb * w);
        }
    }
    for obj in objects {
        draw_object(frame, obj);
    }
}

fn draw_object(frame: &mut Frame, obj: &SceneObject) {
    let color = PALETTE[(obj.class & 0x0f) as usize];
    let half_h = ((obj.size * SIM_HEIGHT as f64) / 2.0).max(1.0);
    let half_w = half_h; // square footprint in raster pixels
    let cx = obj.x * SIM_WIDTH as f64;
    let cy = obj.y * SIM_HEIGHT as f64;
    let x0 = (cx - half_w).floor().max(0.0) as usize;
    let x1 = ((cx + half_w).ceil() as usize).min(SIM_WIDTH);
    let y0 = (cy - half_h).floor().max(0.0) as usize;
    let y1 = ((cy + half_h).ceil() as usize).min(SIM_HEIGHT);
    for y in y0..y1 {
        for x in x0..x1 {
            // Rounded silhouette: skip pixels outside the ellipse.
            let dx = (x as f64 + 0.5 - cx) / half_w.max(1e-9);
            let dy = (y as f64 + 0.5 - cy) / half_h.max(1e-9);
            if dx * dx + dy * dy > 1.0 {
                continue;
            }
            // Phase-dependent shading: same class, different pixels.
            let shade = 0.65
                + 0.35
                    * ((obj.phase + dx * 0.25 + dy * 0.25) * std::f64::consts::TAU)
                        .sin()
                        .abs();
            let rgb = [
                (f64::from(color[0]) * shade) as u8,
                (f64::from(color[1]) * shade) as u8,
                (f64::from(color[2]) * shade) as u8,
            ];
            frame.set_pixel(x, y, rgb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The per-pixel loop [`draw_scene_into`] replaced, with Rust's
    /// saturating casts: the reference its frames must equal byte for byte.
    fn draw_scene_reference(
        frame_id: u64,
        objects: &[SceneObject],
        camera: f64,
        ambient: f64,
    ) -> Frame {
        let mut frame = Frame::new(frame_id);
        let ambient = ambient.clamp(0.0, 1.0);
        let amb = 0.5 + 0.5 * ambient;
        let mut col = [0.0f64; SIM_WIDTH];
        for (x, c) in col.iter_mut().enumerate() {
            let fx = (x as f64 / SIM_WIDTH as f64 + camera).rem_euclid(1.0);
            *c = 25.0 * (fx * std::f64::consts::TAU * 1.37).sin();
        }
        for y in 0..SIM_HEIGHT {
            let fy = y as f64 / SIM_HEIGHT as f64;
            let row = 40.0 + 60.0 * fy;
            for (x, c) in col.iter().enumerate() {
                let v = (row + c) * amb;
                frame.set_pixel(x, y, [(v * 0.80) as u8, (v * 0.74) as u8, (v * 0.68) as u8]);
            }
        }
        for obj in objects {
            draw_object(&mut frame, obj);
        }
        frame
    }

    #[test]
    fn saturating_u8_equals_the_cast() {
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            0.0f64.next_up(),
            0.0f64.next_down(),
            -0.5,
            1.0f64.next_down(),
            255.0f64.next_down(),
            255.0,
            255.5,
            256.0,
            4_503_599_627_370_496.0,
            4_503_599_627_370_496.0 + 1.0,
            9_007_199_254_740_992.0,
            18_446_744_073_709_551_616.0,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
        ];
        // A dense sweep of [-3, 260] in steps of 2⁻¹²: every integer, every
        // half and the values just around them.
        xs.extend((-3 * 4096..=260 * 4096).map(|i| f64::from(i) / 4096.0));
        // Both as a loop the compiler can vectorize and one value at a time.
        let vector: Vec<u8> = xs.iter().map(|&x| saturating_u8(x)).collect();
        for (&x, &v) in xs.iter().zip(&vector) {
            let scalar = saturating_u8(std::hint::black_box(x));
            assert_eq!(v, x as u8, "vectorized, x = {x:e}");
            assert_eq!(scalar, x as u8, "scalar, x = {x:e}");
        }
    }

    #[test]
    fn background_matches_the_per_pixel_reference_on_random_scenes() {
        let mut rng = SmallRng::seed_from_u64(0x9ac7);
        let edges = [0.0, 1.0, -0.25, 1.25];
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for case in 0..300 {
            let objects: Vec<SceneObject> = (0..rng.gen_range(0..=25usize))
                .map(|_| {
                    let mut pos = || {
                        if rng.gen_bool(0.3) {
                            edges[rng.gen_range(0..edges.len())]
                        } else {
                            rng.gen_range(-0.2..1.2)
                        }
                    };
                    let (x, y) = (pos(), pos());
                    SceneObject {
                        class: rng.gen_range(0..=255u8),
                        x,
                        y,
                        size: rng.gen_range(-0.5..2.0),
                        phase: rng.gen_range(-1.0..2.0),
                    }
                })
                .collect();
            let mut camera = rng.gen_range(-3.0..3.0);
            let mut ambient = rng.gen_range(-1.0..2.0);
            match case % 6 {
                0 => camera = special[rng.gen_range(0..special.len())],
                1 => ambient = special[rng.gen_range(0..special.len())],
                _ => {}
            }
            let want = draw_scene_reference(case, &objects, camera, ambient);
            let got = draw_scene(case, &objects, camera, ambient);
            assert_eq!(got, want, "case {case}: camera={camera} ambient={ambient}");
        }
    }

    #[test]
    fn empty_scene_is_pure_background() {
        let f = draw_scene(0, &[], 0.0, 0.5);
        // Background is warm-neutral: red ≥ green ≥ blue everywhere.
        let px = f.pixel(10, 10);
        assert!(px[0] >= px[1] && px[1] >= px[2]);
    }

    #[test]
    fn object_center_takes_class_color() {
        for class in 0..6u8 {
            let obj = SceneObject::new(class, 0.5, 0.5, 0.3, 0.2);
            let f = draw_scene(0, &[obj], 0.0, 0.5);
            let px = f.pixel(48, 27);
            let base = PALETTE[class as usize];
            // The dominant channel of the palette entry stays dominant.
            let dom = (0..3).max_by_key(|&i| base[i]).unwrap();
            let got_dom = (0..3).max_by_key(|&i| px[i]).unwrap();
            assert_eq!(dom, got_dom, "class {class}: {px:?} vs {base:?}");
        }
    }

    #[test]
    fn phase_changes_pixels_but_not_class_hue() {
        let a = draw_scene(0, &[SceneObject::new(2, 0.5, 0.5, 0.3, 0.0)], 0.0, 0.5);
        let b = draw_scene(1, &[SceneObject::new(2, 0.5, 0.5, 0.3, 0.4)], 0.0, 0.5);
        assert!(a.diff_fraction(&b) > 0.0, "phase must alter pixels");
        let pa = a.pixel(48, 27);
        let pb = b.pixel(48, 27);
        assert!(pa[2] > pa[0] && pb[2] > pb[0], "both stay blue-dominant");
    }

    #[test]
    fn camera_pan_changes_background() {
        let a = draw_scene(0, &[], 0.0, 0.5);
        let b = draw_scene(1, &[], 0.13, 0.5);
        assert!(a.diff_fraction(&b) > 0.3);
    }

    #[test]
    fn position_moves_object() {
        // A blue object: blue dominates at the left center only in the
        // `left` frame; the warm-neutral background dominates otherwise.
        let left = draw_scene(0, &[SceneObject::new(2, 0.2, 0.5, 0.2, 0.0)], 0.0, 0.5);
        let right = draw_scene(1, &[SceneObject::new(2, 0.8, 0.5, 0.2, 0.0)], 0.0, 0.5);
        let lx = (0.2 * SIM_WIDTH as f64) as usize;
        let px_l = left.pixel(lx, 27);
        let px_r = right.pixel(lx, 27);
        assert!(px_l[2] > px_l[0], "object pixel must be blue: {px_l:?}");
        assert!(
            px_r[0] >= px_r[2],
            "background pixel must be warm: {px_r:?}"
        );
    }

    #[test]
    fn constructor_clamps() {
        let o = SceneObject::new(3, -1.0, 2.0, 5.0, 1.75);
        assert_eq!(o.x, 0.0);
        assert_eq!(o.y, 1.0);
        assert_eq!(o.size, 1.0);
        assert!((o.phase - 0.75).abs() < 1e-12);
    }

    #[test]
    fn draw_scene_into_is_bit_identical_to_draw_scene() {
        let objs = [
            SceneObject::new(3, 0.31, 0.62, 0.21, 0.13),
            SceneObject::new(9, 0.77, 0.18, 0.09, 0.88),
        ];
        for (camera, ambient) in [(0.0, 0.5), (0.42, 0.9), (0.999, 0.0), (0.1, 1.7)] {
            let fresh = draw_scene(5, &objs, camera, ambient);
            // Reuse a dirty frame: every pixel must be overwritten.
            let mut reused = draw_scene(4, &[SceneObject::new(1, 0.5, 0.5, 0.9, 0.0)], 0.7, 1.0);
            reused.set_id(5);
            draw_scene_into(&mut reused, &objs, camera, ambient);
            assert_eq!(fresh, reused, "camera={camera} ambient={ambient}");
            let reference = draw_scene_reference(5, &objs, camera, ambient);
            assert_eq!(fresh, reference, "camera={camera} ambient={ambient}");
        }
    }

    #[test]
    fn size_scales_footprint() {
        let small = draw_scene(0, &[SceneObject::new(1, 0.5, 0.5, 0.05, 0.0)], 0.0, 0.5);
        let big = draw_scene(1, &[SceneObject::new(1, 0.5, 0.5, 0.5, 0.0)], 0.0, 0.5);
        let bg = draw_scene(2, &[], 0.0, 0.5);
        assert!(big.diff_fraction(&bg) > small.diff_fraction(&bg) * 4.0);
    }
}

//! Heatmap binning and rendering (Figs. 3 and 4).
//!
//! The paper's heatmaps plot time (x) against physical address (y), each
//! cell colored by how often a page frame was observed in that interval.
//! We bin recorded (epoch, pfn) observations into a grid and render it as
//! ASCII shades plus a CSV for external plotting.

use tmprof_sim::addr::Pfn;

/// A binned heatmap grid.
#[derive(Clone, Debug)]
pub struct Heatmap {
    /// `cells[y][x]` = observations of address bucket `y` in epoch `x`.
    cells: Vec<Vec<u64>>,
    epochs: usize,
    buckets: usize,
}

impl Heatmap {
    /// Bin `(epoch, pfn)` points into `buckets` address rows over
    /// `epochs` columns, covering frames `[0, total_frames)`.
    pub fn build(
        points: impl IntoIterator<Item = (u32, Pfn)>,
        epochs: usize,
        total_frames: u64,
        buckets: usize,
    ) -> Self {
        assert!(epochs > 0 && buckets > 0 && total_frames > 0);
        let frames_per_bucket = total_frames.div_ceil(buckets as u64).max(1);
        let mut cells = vec![vec![0u64; epochs]; buckets];
        for (epoch, pfn) in points {
            let x = (epoch as usize).min(epochs - 1);
            let y = ((pfn.0 / frames_per_bucket) as usize).min(buckets - 1);
            cells[y][x] += 1;
        }
        Self {
            cells,
            epochs,
            buckets,
        }
    }

    /// Total observations binned.
    pub fn total(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }

    /// ASCII rendering: one row per address bucket (low addresses at the
    /// bottom, like the paper's plots), shade by log-scaled intensity.
    pub fn render_ascii(&self) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let max = self.cells.iter().flatten().copied().max().unwrap_or(0);
        let mut out = String::new();
        for y in (0..self.buckets).rev() {
            out.push('|');
            for x in 0..self.epochs {
                let v = self.cells[y][x];
                let shade = if max == 0 || v == 0 {
                    0
                } else {
                    // log scale so sparse samples remain visible.
                    let norm = (v as f64).ln_1p() / (max as f64).ln_1p();
                    ((norm * (SHADES.len() - 1) as f64).round() as usize).clamp(1, SHADES.len() - 1)
                };
                out.push(SHADES[shade]);
            }
            out.push('|');
            if y == self.buckets - 1 {
                out.push_str("  <- high phys addr");
            } else if y == 0 {
                out.push_str("  <- phys addr 0");
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "+{}+  time -> ({} epochs)\n",
            "-".repeat(self.epochs),
            self.epochs
        ));
        out
    }

    /// CSV: `bucket,epoch,count` triples (nonzero cells only).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("addr_bucket,epoch,count\n");
        for (y, row) in self.cells.iter().enumerate() {
            for (x, &v) in row.iter().enumerate() {
                if v > 0 {
                    out.push_str(&format!("{y},{x},{v}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_points_into_grid() {
        let points = vec![(0u32, Pfn(0)), (0, Pfn(1)), (1, Pfn(50)), (2, Pfn(99))];
        let hm = Heatmap::build(points, 3, 100, 10);
        assert_eq!((hm.buckets, hm.epochs), (10, 3));
        assert_eq!(hm.cells[0][0], 2);
        assert_eq!(hm.cells[5][1], 1);
        assert_eq!(hm.cells[9][2], 1);
        assert_eq!(hm.total(), 4);
    }

    #[test]
    fn out_of_range_points_clamp() {
        let points = vec![(99u32, Pfn(0))];
        let hm = Heatmap::build(points, 4, 16, 4);
        assert_eq!(hm.cells[0][3], 1);
    }

    #[test]
    fn ascii_shape_is_rectangular() {
        let hm = Heatmap::build(vec![(0u32, Pfn(3))], 8, 64, 4);
        let text = hm.render_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // 4 rows + axis
        for line in &lines[..4] {
            assert!(line.starts_with('|'));
        }
    }

    #[test]
    fn hot_cell_gets_darker_shade_than_cold() {
        let mut points = vec![(0u32, Pfn(0)); 1000];
        points.push((1, Pfn(0)));
        let hm = Heatmap::build(points, 2, 4, 1);
        let text = hm.render_ascii();
        let row = text.lines().next().unwrap();
        let hot = row.chars().nth(1).unwrap();
        let cold = row.chars().nth(2).unwrap();
        assert_eq!(hot, '@');
        assert_ne!(cold, '@');
        assert_ne!(cold, ' ');
    }

    #[test]
    fn csv_lists_nonzero_cells() {
        let hm = Heatmap::build(vec![(1u32, Pfn(5))], 2, 8, 2);
        let csv = hm.to_csv();
        assert_eq!(csv, "addr_bucket,epoch,count\n1,1,1\n");
    }
}

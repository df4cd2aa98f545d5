//! Regenerate every table and figure, then the ablations, in one run
//! (shared corpus, index, and signed structures).

use authsearch_bench::{figures, Scale, Workbench};

fn main() {
    let mut wb = Workbench::new(Scale::from_args());
    figures::trace::run();
    figures::fig04::run(&wb);
    figures::fig13::run(&mut wb);
    figures::fig14::run(&mut wb);
    figures::fig15::run(&mut wb);
    figures::table2::run(&mut wb);
    figures::hashwork::run(&mut wb);
    figures::space::run(&mut wb);
    figures::ablations::run(&mut wb);
}

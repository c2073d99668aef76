//! §V-F: space and hardware overheads per scheme for the 16 GB system.

use scue::{overheads, SchemeKind};
use scue_bench::banner;
use scue_itree::TreeGeometry;

fn human(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{} MB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{} KB", bytes / 1024)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    banner("§V-F — on-chip space/hardware overheads (16 GB NVM)");
    let geom = TreeGeometry::paper_16gb();
    println!("{:>10} {:>12}  {}", "scheme", "NV bytes", "breakdown");
    for scheme in SchemeKind::ALL {
        let oh = overheads::on_chip(scheme, &geom);
        println!(
            "{:>10} {:>12}  {}",
            scheme.policy().name,
            human(oh.nonvolatile_bytes),
            oh.breakdown
        );
    }
    println!();
    println!(
        "SIT storage in NVM: {} ({:.2} % of data capacity), identical for all SIT schemes",
        human(overheads::tree_storage_bytes(&geom)),
        overheads::tree_storage_fraction(&geom) * 100.0
    );
    println!();
    println!("paper: SCUE 128 B registers; PLP PTT 616 B + ETT 48 b; BMF-ideal 256 MB nvMC");
}

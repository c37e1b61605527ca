//! One module per reproduced table/figure (see DESIGN.md §4).

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod hashbench;
pub mod microcosts;
pub mod reincarnation;
pub mod reliability;
pub mod table1;
pub mod table4;
pub mod table5;
pub mod table6;

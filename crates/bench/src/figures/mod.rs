//! One function per paper table or figure. The paper's parameters
//! (latencies, key kinds, tree sets, thread ladder, payloads) are constants
//! here; a [`crate::Scale`] picks only sizes. Repo extensions are extra
//! reports inside the nearest figure.

pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod overhead;
pub mod scan;
pub mod table1;

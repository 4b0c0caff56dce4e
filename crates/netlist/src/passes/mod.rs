//! The level schedule: a netlist compiled into the flat, level-ordered
//! evaluation order the [`crate::packed::PackedSimulator`] executes.
//!
//! Compilation never rewrites the netlist: every net keeps its id, so the
//! simulator counts toggles directly in the original net-id space and the
//! energy it reports is the energy of the generated circuit, cell for cell.
//! See [`EvalSchedule`] for what the schedule holds and how the simulator
//! uses it to skip cones that never change.

mod level;

pub use level::{EvalSchedule, ScheduledCell};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::library::CellLibrary;
    use crate::netlist::{Netlist, NetlistError};
    use crate::packed::PackedSimulator;

    #[test]
    fn pipeline_rejects_a_combinational_loop() {
        // A loop closed through a gate that a primary input also feeds:
        // compiling the schedule refuses it, and so does the simulator,
        // which compiles the same schedule before building any state.
        let mut n = Netlist::new("loop");
        let a = n.add_input("a");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_cell("u1", CellKind::And2, &[a, y], x).unwrap();
        n.add_cell("u2", CellKind::Buf, &[x], y).unwrap();
        assert!(matches!(
            EvalSchedule::new(&n),
            Err(NetlistError::CombinationalLoop { .. })
        ));
        let lib = CellLibrary::default();
        assert!(matches!(
            PackedSimulator::new(&n, &lib, 4),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }
}

//! Confinement of the process to one CPU, for the replied-remote-call
//! measurements: unconfined, a round trip costs either a same-core hand-off
//! or a cross-core wake-up depending on where the node thread last ran, and
//! the figure measures the hypervisor's scheduler instead of the program.

/// While alive, the calling thread — and every thread it spawns — runs on one
/// CPU. Dropping it gives the calling thread its previous CPU set back.
pub struct Confined {
    previous: CpuSet,
}

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Result<CpuSet, String> {
    Err("CPU confinement is implemented for Linux only".into())
}

#[cfg(not(target_os = "linux"))]
fn set(_set: &CpuSet) -> Result<(), String> {
    Err("CPU confinement is implemented for Linux only".into())
}

impl Confined {
    /// Confine to the highest-numbered CPU the thread may run on now.
    pub fn to_one_cpu() -> Result<Confined, String> {
        let previous = get()?;
        let cpu = (0..1024)
            .rev()
            .find(|i| previous[i / 64] >> (i % 64) & 1 == 1)
            .ok_or("empty CPU set")?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one)?;
        Ok(Confined { previous })
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        let _ = set(&self.previous);
    }
}

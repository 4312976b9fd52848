/// A binary's own `pub fn` is not library API.
pub fn unused_in_bin() {}

fn main() {
    println!("{}", api::for_bin());
}

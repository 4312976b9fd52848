fn main() {
    println!("{}", api::for_bench());
}

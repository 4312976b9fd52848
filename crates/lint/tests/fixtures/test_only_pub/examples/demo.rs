fn main() {
    println!("{} {}", api::for_example(), api::total());
}

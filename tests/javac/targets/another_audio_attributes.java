import android.app.Notification;
import android.net.Uri;
import com.example.AudioAttributes;

class R {
    AudioAttributes own = new AudioAttributes();

    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
